package telemetry

import (
	"io"
	"net/http"
)

// BareHandler is Handler without the request observer, for the tests
// that measure what the observer costs.
func (s *Server) BareHandler() http.Handler { return s.bareHandler() }

// PooledEncoder returns the encode method of one encoder as WriteJSON's
// pool builds them, for the tests that reuse an encoder across responses
// without depending on which one the pool hands out.
func PooledEncoder() func(w io.Writer, v any) { return jsonEncoders.New().(*jsonEncoder).encode }
