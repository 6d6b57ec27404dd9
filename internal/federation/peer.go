package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

// peer is how the router reaches one target. NewRouter decides once
// whether a target is in process (local) or remote; every other path
// calls through this interface and never asks again.
type peer interface {
	// forward serves r from the target. A non-nil error means nothing
	// has been written to w (upstream.forward's contract).
	forward(w http.ResponseWriter, r *http.Request, maxBody int64) error
	// poll answers a poll the request loop read off its socket; on an
	// error dst comes back as it went and nothing was answered.
	poll(dst []byte, r *pollserve.Request) ([]byte, error)
	// lookup is the run's in-process handle; a remote target has none.
	lookup(id string) (*service.Run, bool)
	// runs is the target's run listing, GET /v1/runs.
	runs() ([]service.RunInfo, error)
	metrics() (service.MetricsResponse, error)
	// pump streams the target's firehose into sink until either ends.
	pump(sink *sseSink, r *http.Request)
	// importRun installs a transfer stream on the target.
	importRun(stream []byte) error
	// migrate moves run id from this target to dst.
	migrate(id string, dst peer) error
	// status appends the counters of the target's hop, if it has one.
	status(st []UpstreamStatus) []UpstreamStatus
}

// local is an in-process target: every call is a method call on its
// Server, and a forwarded request reaches the host's handler untouched.
type local struct {
	name string
	srv  *service.Server
}

func (p *local) forward(w http.ResponseWriter, r *http.Request, _ int64) error {
	p.srv.ServeHTTP(w, r)
	return nil
}

func (p *local) poll(dst []byte, r *pollserve.Request) ([]byte, error) {
	return p.srv.ServePoll(dst, r), nil
}

func (p *local) lookup(id string) (*service.Run, bool) { return p.srv.Registry().Get(id) }

func (p *local) runs() ([]service.RunInfo, error) {
	var infos []service.RunInfo
	for _, run := range p.srv.Registry().Runs() {
		infos = append(infos, run.Info())
	}
	return infos, nil
}

func (p *local) metrics() (service.MetricsResponse, error) { return p.srv.Metrics(), nil }

func (p *local) importRun(stream []byte) error {
	_, err := p.srv.ImportRun(stream)
	return err
}

func (p *local) migrate(id string, dst peer) error { return p.srv.Migrate(id, dst.importRun) }

func (p *local) status(st []UpstreamStatus) []UpstreamStatus { return st }

// remote is a URL target. Per-run requests and polls take its upstream
// hop (upstream.go); the cold calls — listing, metrics, firehose,
// import and migrate — take the router's client.
type remote struct {
	*upstream
	name, url string
	client    *http.Client
}

func (p *remote) lookup(string) (*service.Run, bool) { return nil, false }

func (p *remote) runs() ([]service.RunInfo, error) {
	var list service.RunList
	err := p.getJSON("/v1/runs", &list)
	return list.Runs, err
}

func (p *remote) metrics() (service.MetricsResponse, error) {
	var m service.MetricsResponse
	err := p.getJSON("/v1/metrics", &m)
	return m, err
}

func (p *remote) importRun(stream []byte) error {
	return service.PushTransfer(p.client, p.url, stream)
}

// migrate drives the source's migrate endpoint: the source runs the
// migration itself and pushes to dst's import endpoint, so dst must be
// remote too.
func (p *remote) migrate(id string, dst peer) error {
	d, ok := dst.(*remote)
	if !ok {
		return fmt.Errorf("destination %q has no URL a remote source can push to", dst.(*local).name)
	}
	body := strings.NewReader(fmt.Sprintf("{\"target\":%q}", d.url))
	resp, err := p.client.Post(p.url+"/v1/runs/"+id+"/migrate", "application/json", body)
	if err != nil {
		return fmt.Errorf("source %q unreachable: %w", p.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("source %q answered %d", p.name, resp.StatusCode)
	}
	return nil
}

func (p *remote) status(st []UpstreamStatus) []UpstreamStatus {
	return append(st, UpstreamStatus{Host: p.name, Dials: p.dials.Load(), Reuses: p.reuses.Load(),
		Stale: p.stale.Load(), Failures: p.failures.Load()})
}

// getJSON fetches path from the target. A peer's answer is decoded
// tolerantly, unlike a client's request: on a fleet mid-upgrade a newer
// peer may add a field, and that must not drop it from the fleet view.
func (p *remote) getJSON(path string, out any) error {
	resp, err := p.client.Get(p.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
