package cluster

import (
	"context"
	"net"
	"net/http"
	"time"

	"hetsched/internal/pollserve"
)

// loopServer serves a handler the way cmd/schedd does — through the
// request loop, on a loopback listener — behind the surface the HTTP
// backends used of httptest.Server. The harness's polls are therefore
// answered by the handler's ServePoll and everything else by net/http
// over the same handler, and every direct == HTTP golden pins the loop
// against the transport-free path.
type loopServer struct {
	URL    string
	srv    *pollserve.Server
	served chan struct{} // closed when Serve has returned
	client *http.Client
}

func newLoopServer(h pollserve.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopServer{
		URL:    "http://" + ln.Addr().String(),
		srv:    pollserve.New(h),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Client returns the client to reach the server with; Close drops its
// idle connections.
func (s *loopServer) Client() *http.Client { return s.client }

// Close stops the server: when it returns the listener and every
// connection are closed. The harness has no request in flight when it
// calls Close, so the grace period only bounds a bug.
func (s *loopServer) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}
