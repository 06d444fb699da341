package promtext

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtLine is the line the former fmt-based writers printed for one
// sample: labels joined from `name=%q` pairs, the value as %g.
func fmtLine(name string, v float64, labels ...string) string {
	var pairs []string
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	return fmt.Sprintf("%s{%s} %g\n", name, strings.Join(pairs, ","), v)
}

var (
	edgeValues = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 49, 9000, 123456789012,
		1e20, 1e21, -1e21, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	edgeLabels = []string{
		"", "mach", `q"uote`, `back\slash`, "new\nline", "tab\tcr\r", "ünïcødé 机器",
		"emoji 🚀", "\x00nul", "bad utf8 \xff\xfe", " sep",
	}
)

func TestSampleMatchesFmt(t *testing.T) {
	for _, v := range edgeValues {
		for _, lv := range edgeLabels {
			for _, labels := range [][]string{
				{"machine", lv},
				{"machine", "m0", "cpu", lv},
				{"endpoint", lv, "quantile", "0.99"},
			} {
				f := Family{Name: "hetpapi_test_total"}
				f.Sample(v, labels...)
				if got, want := string(*f.lines), fmtLine(f.Name, v, labels...); got != want {
					t.Fatalf("Sample(%g, %q) = %q, want %q", v, labels, got, want)
				}
			}
		}
	}
}

func TestWriteMatchesFmt(t *testing.T) {
	a := Family{Name: "a_total", Help: `Help with "quotes" and \ backslash.`, Type: "counter"}
	empty := Family{Name: "empty", Help: "Never sampled.", Type: "gauge"}
	b := Family{Name: "b", Help: "Gauge.", Type: "gauge"}
	// Two rounds: the second fills the families again after Write has
	// emptied them and recycled their buffers.
	for round := 0; round < 2; round++ {
		var want strings.Builder
		for _, f := range []*Family{&a, &empty, &b} {
			var lines strings.Builder
			for i, v := range edgeValues {
				switch f {
				case &a:
					f.Sample(v, "machine", "m0")
					lines.WriteString(fmtLine(f.Name, v, "machine", "m0"))
				case &b:
					f.Sample(-v, "machine", edgeLabels[i%len(edgeLabels)], "kind", "latency")
					lines.WriteString(fmtLine(f.Name, -v, "machine", edgeLabels[i%len(edgeLabels)], "kind", "latency"))
				}
			}
			if lines.Len() > 0 {
				fmt.Fprintf(&want, "# HELP %s %s\n# TYPE %s %s\n%s", f.Name, f.Help, f.Name, f.Type, lines.String())
			}
		}
		var got strings.Builder
		if err := Write(&got, &a, &empty, &b); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("round %d: Write =\n%s\nwant\n%s", round, got.String(), want.String())
		}
	}
	var got countingWriter
	if err := Write(&got, &a, &empty, &b); err != nil || got.writes != 0 {
		t.Fatalf("Write of families without samples made %d writes (err %v), want none", got.writes, err)
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func TestExpositionAllocatesNothingOnceGrown(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	ctr := Family{Name: "hetpapi_counter_total", Help: "Counter.", Type: "counter"}
	pwr := Family{Name: "hetpapi_pkg_power_watts", Help: "Power.", Type: "gauge"}
	machines := []string{"m0000", "m0001", "m0002"}
	var w countingWriter
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range machines {
			ctr.Sample(123456.5, "machine", m, "cpu", "3", "type", "P-core", "kind", "instructions")
			pwr.Sample(17.2, "machine", m)
		}
		Write(&w, &ctr, &pwr)
	}); n != 0 {
		t.Fatalf("an exposition allocates %.1f times, want 0", n)
	}
}
