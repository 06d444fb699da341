package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"path"
	"runtime"
	"strings"
	"sync"
	"time"
)

// The request deadline is net/http's TimeoutHandler, ported from go1.24's
// net/http/server.go (timeoutHandler and timeoutWriter) with one change:
// the header map and body buffer that hold a response until its handler
// finishes come from a pool, and go back to it only when the handler
// finished before the deadline. TimeoutHandler allocated both afresh for
// every request, so each body was buffered into new memory twice, once by
// the JSON encoder and once here. The rest is as in net/http: the handler
// runs on its own goroutine, so a handler that ignores its context still
// answers at the deadline; that answer is a 503 with the API's JSON error
// body; a handler panic is re-raised on the serving goroutine; and every
// write a handler makes after its deadline returns http.ErrHandlerTimeout.
// A timed-out handler may still be writing, so its writer is never pooled
// again.

// timeoutBody is the body of the 503 a request past its deadline gets.
const timeoutBody = `{"status":503,"error":"request timed out"}`

// maxPooledBody bounds the buffers kept for reuse: a response larger than
// this leaves its buffer to the collector rather than pinning it in a
// pool that every small response then draws from.
const maxPooledBody = 1 << 20

// deadlineHandler runs handler with the time limit dt.
type deadlineHandler struct {
	handler http.Handler
	dt      time.Duration
}

func (h *deadlineHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancelCtx := context.WithTimeout(r.Context(), h.dt)
	defer cancelCtx()
	r = r.WithContext(ctx)
	done := make(chan struct{})
	tw := deadlineWriters.Get().(*deadlineWriter)
	tw.w, tw.req = w, r
	panicChan := make(chan any, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				panicChan <- p
			}
		}()
		h.handler.ServeHTTP(tw, r)
		close(done)
	}()
	select {
	case p := <-panicChan:
		panic(p)
	case <-done:
		tw.mu.Lock()
		dst := w.Header()
		maps.Copy(dst, tw.h)
		if !tw.wroteHeader {
			tw.code = http.StatusOK
		}
		w.WriteHeader(tw.code)
		w.Write(tw.wbuf.Bytes())
		tw.mu.Unlock()
		tw.release()
	case <-ctx.Done():
		tw.mu.Lock()
		defer tw.mu.Unlock()
		switch err := ctx.Err(); err {
		case context.DeadlineExceeded:
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, timeoutBody)
			tw.err = http.ErrHandlerTimeout
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
			tw.err = err
		}
	}
}

// deadlineWriter buffers one response until its handler finishes.
type deadlineWriter struct {
	w    http.ResponseWriter
	h    http.Header
	wbuf bytes.Buffer
	req  *http.Request

	mu          sync.Mutex
	err         error
	wroteHeader bool
	code        int
}

var deadlineWriters = sync.Pool{New: func() any { return &deadlineWriter{h: make(http.Header)} }}

// release empties tw and returns it to the pool. The response's header
// values now belong to the real writer, which got copies of the map
// entries, so emptying the map leaves them alone.
func (tw *deadlineWriter) release() {
	if tw.wbuf.Cap() > maxPooledBody {
		return
	}
	clear(tw.h)
	tw.wbuf.Reset()
	tw.w, tw.req, tw.err, tw.wroteHeader, tw.code = nil, nil, nil, false, 0
	deadlineWriters.Put(tw)
}

var _ http.Pusher = (*deadlineWriter)(nil)

// Push implements the http.Pusher interface.
func (tw *deadlineWriter) Push(target string, opts *http.PushOptions) error {
	if pusher, ok := tw.w.(http.Pusher); ok {
		return pusher.Push(target, opts)
	}
	return http.ErrNotSupported
}

func (tw *deadlineWriter) Header() http.Header { return tw.h }

func (tw *deadlineWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return 0, tw.err
	}
	if !tw.wroteHeader {
		tw.writeHeaderLocked(http.StatusOK)
	}
	return tw.wbuf.Write(p)
}

func (tw *deadlineWriter) writeHeaderLocked(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	switch {
	case tw.err != nil:
		return
	case tw.wroteHeader:
		if tw.req != nil {
			caller := relevantCaller()
			logf(tw.req, "http: superfluous response.WriteHeader call from %s (%s:%d)", caller.Function, path.Base(caller.File), caller.Line)
		}
	default:
		tw.wroteHeader = true
		tw.code = code
	}
}

func (tw *deadlineWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	tw.writeHeaderLocked(code)
}

// relevantCaller is the first caller outside net/http and this writer.
func relevantCaller() runtime.Frame {
	pc := make([]uintptr, 16)
	n := runtime.Callers(1, pc)
	frames := runtime.CallersFrames(pc[:n])
	var frame runtime.Frame
	for more := true; more; {
		frame, more = frames.Next()
		if !strings.HasPrefix(frame.Function, "net/http.") && !strings.Contains(frame.Function, "deadlineWriter") &&
			!strings.HasSuffix(frame.Function, ".relevantCaller") {
			return frame
		}
	}
	return frame
}

// logf logs to the serving http.Server's ErrorLog, or the standard logger.
func logf(r *http.Request, format string, args ...any) {
	if s, _ := r.Context().Value(http.ServerContextKey).(*http.Server); s != nil && s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
