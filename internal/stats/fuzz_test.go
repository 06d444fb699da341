package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// refWindow is the reference a RingQuantile must match: the last
// capacity non-NaN samples in a plain slice, and the same values in a
// sorted slice kept by sort.SearchFloat64s insertion and removal. That
// placement decides the sign of a zero quantile when -0 and +0 share a
// window (they compare equal, so eviction may drop either), and it is
// the placement every quantile the store, httpobs and the fleet report
// serve was computed with.
type refWindow struct {
	capacity int
	win      []float64
	sorted   []float64
}

func (r *refWindow) add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if len(r.win) == r.capacity {
		i := sort.SearchFloat64s(r.sorted, r.win[0])
		r.sorted = slices.Delete(r.sorted, i, i+1)
		r.win = slices.Delete(r.win, 0, 1)
	}
	r.win = append(r.win, x)
	r.sorted = slices.Insert(r.sorted, sort.SearchFloat64s(r.sorted, x), x)
}

// sameFloat reports whether a and b are the same value: equal (so -0
// matches +0) or both NaN (an interpolation between -Inf and +Inf).
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// FuzzRingQuantile drives random Add sequences into windows of capacity
// 1-70, so that they fill and wrap, with NaN (dropped), ±0, ±Inf,
// duplicates and arbitrary bit patterns. After every Add the quantiles,
// the window and its fill must match the reference bit for bit, the
// quantiles must equal a full re-sort's up to the sign of zero, and
// neither buffer may hold more slots than the window.
func FuzzRingQuantile(f *testing.F) {
	f.Add(byte(11), []byte{5, 3, 5, 1, 5, 7, 1, 0, 2, 0, 5, 3, 0, 0, 3, 1, 5, 200, 5, 9, 5, 3, 5, 1, 5, 7, 1, 0})
	f.Add(byte(0), []byte{1, 0, 2, 0, 1, 0, 2, 0, 3, 0})
	f.Add(byte(3), []byte{4, 0, 4, 1, 5, 1, 2, 0, 1, 0, 4, 0, 3, 2})
	f.Add(byte(69), []byte{6, 0, 0, 0, 0, 0, 0, 248, 127, 5, 4, 7, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, capByte byte, data []byte) {
		capacity := 1 + int(capByte)%70
		rq := NewRingQuantile(capacity)
		ref := &refWindow{capacity: capacity}
		for off := 0; off+2 <= len(data) && off < 2*1024; off += 2 {
			op, arg := data[off], data[off+1]
			var x float64
			switch op % 8 {
			case 0:
				x = math.NaN()
			case 1:
				x = 0
			case 2:
				x = math.Copysign(0, -1)
			case 3:
				if len(ref.win) > 0 {
					x = ref.win[int(arg)%len(ref.win)]
				}
			case 4:
				x = math.Inf(1 - 2*int(arg&1))
			case 6:
				// Eight more bytes give a raw bit pattern (NaN payloads,
				// subnormals, huge magnitudes).
				if off+10 <= len(data) {
					var bits uint64
					for _, b := range data[off+2 : off+10] {
						bits = bits<<8 | uint64(b)
					}
					x = math.Float64frombits(bits)
					off += 8
				}
			default:
				x = float64(int8(arg)) / 4 // few distinct values: many duplicates
			}
			rq.Add(x)
			ref.add(x)

			if rq.N() != len(ref.win) {
				t.Fatalf("cap %d after %v: N() = %d, want %d", capacity, x, rq.N(), len(ref.win))
			}
			if got := rq.Window(); !slices.EqualFunc(got, ref.win, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("cap %d after %v: Window() = %v, want %v", capacity, x, got, ref.win)
			}
			for _, p := range []float64{0, 25, 50, 95, 99, 100} {
				got, want := rq.Quantile(p), SortedPercentile(ref.sorted, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cap %d window %v: p%g = %v (bits %#x), reference %v (bits %#x)",
						capacity, ref.win, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if resorted := Percentile(ref.win, p); !sameFloat(got, resorted) {
					t.Fatalf("cap %d window %v: p%g = %v, re-sorted window %v", capacity, ref.win, p, got, resorted)
				}
			}
			if cap(rq.ring) > capacity || cap(rq.sorted) > capacity {
				t.Fatalf("cap %d: buffers grew to %d and %d slots", capacity, cap(rq.ring), cap(rq.sorted))
			}
		}
	})
}
