// Package promtext writes the Prometheus text exposition format by
// appending to recycled byte buffers: a sample line, and a whole
// exposition once the buffers have grown, cost no allocation. The
// hetpapid /metrics endpoint and the serving-path observer's
// hetpapid_http_* families both write through it.
package promtext

import (
	"io"
	"strconv"
	"sync"
)

// bufPool recycles the families' line buffers and Write's output buffer
// across expositions.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Family is one metric family: its name, HELP text and TYPE, and the
// sample lines added to it since the last Write.
type Family struct {
	Name, Help, Type string
	lines            *[]byte // from bufPool; nil until the first Sample
}

// Sample adds one line, `name{label="value",...} v`. labels alternates
// label names and values; a value is quoted as fmt's %q quotes it, and v
// is printed as fmt's %g prints it.
func (f *Family) Sample(v float64, labels ...string) {
	if f.lines == nil {
		f.lines = bufPool.Get().(*[]byte)
	}
	b := append(*f.lines, f.Name...)
	b = append(b, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	b = append(b, "} "...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	*f.lines = append(b, '\n')
}

// Write writes the families that have samples to w in one Write, in
// order, each as its HELP and TYPE lines followed by its samples.
// Families without samples are left out. Write empties every family,
// recycling its buffer, so a family can be filled and written again.
func Write(w io.Writer, fams ...*Family) error {
	out := bufPool.Get().(*[]byte)
	b := (*out)[:0]
	for _, f := range fams {
		if f.lines == nil {
			continue
		}
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		b = append(b, *f.lines...)
		*f.lines = (*f.lines)[:0]
		bufPool.Put(f.lines)
		f.lines = nil
	}
	var err error
	if len(b) > 0 {
		_, err = w.Write(b)
	}
	*out = b[:0]
	bufPool.Put(out)
	return err
}
