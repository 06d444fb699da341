package telemetry

import "net/http"

// BareHandler is Handler without the request observer, for the tests
// that measure what the observer costs.
func (s *Server) BareHandler() http.Handler { return s.bareHandler() }
