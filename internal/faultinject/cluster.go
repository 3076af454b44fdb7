package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// PartialFetch is a fault-injecting http.RoundTripper for the cluster's
// state-pull path: responses to requests whose URL path contains match are
// cut off mid-body for the first n matching exchanges. The server fully
// processes each request — the shard's round is sealed, its state exported —
// but the coordinator receives only a prefix and a read error, the way a
// connection dying mid-transfer looks. A correct coordinator retries and, the
// endpoint being idempotent, receives the identical state. Safe for
// concurrent use.
type PartialFetch struct {
	base  http.RoundTripper
	match string

	mu        sync.Mutex
	remaining int
	injected  int
}

// NewPartialFetch wraps base (nil = http.DefaultTransport) so the first n
// responses to paths containing match are truncated.
func NewPartialFetch(base http.RoundTripper, match string, n int) *PartialFetch {
	if base == nil {
		base = http.DefaultTransport
	}
	return &PartialFetch{base: base, match: match, remaining: n}
}

// errAfterReader yields its payload, then the injected error — the shape of a
// transfer cut off mid-body (not a clean EOF, which would hand the client a
// syntactically truncated but "complete" read).
type errAfterReader struct {
	r   io.Reader
	err error
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

// RoundTrip implements http.RoundTripper.
func (p *PartialFetch) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.base.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.Path, p.match) {
		return resp, err
	}
	p.mu.Lock()
	inject := p.remaining > 0
	if inject {
		p.remaining--
		p.injected++
	}
	p.mu.Unlock()
	if !inject {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(&errAfterReader{
		r:   bytes.NewReader(body[:len(body)/2]),
		err: fmt.Errorf("faultinject: %w after %d of %d body bytes", io.ErrUnexpectedEOF, len(body)/2, len(body)),
	})
	return resp, nil
}

// Injected reports how many responses were truncated.
func (p *PartialFetch) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// PathBlackout is a fault-injecting http.RoundTripper that drops only the
// requests whose URL path contains a blocked substring, answering each as a
// refused connection. It drills partial failures: a shard whose ingest is
// alive but whose heartbeats are lost (the asymmetric partition that makes a
// coordinator promote a healthy primary's follower), or a follower whose
// replication pulls stall while everything else flows (a lagging follower at
// promotion time). Safe for concurrent use.
type PathBlackout struct {
	base http.RoundTripper

	mu      sync.Mutex
	blocked map[string]bool
	dropped int
}

// NewPathBlackout wraps base (nil = http.DefaultTransport).
func NewPathBlackout(base http.RoundTripper) *PathBlackout {
	if base == nil {
		base = http.DefaultTransport
	}
	return &PathBlackout{base: base, blocked: make(map[string]bool)}
}

// Block makes every request whose path contains match fail as a refused
// connection.
func (p *PathBlackout) Block(match string) {
	p.mu.Lock()
	p.blocked[match] = true
	p.mu.Unlock()
}

// Unblock restores the path.
func (p *PathBlackout) Unblock(match string) {
	p.mu.Lock()
	delete(p.blocked, match)
	p.mu.Unlock()
}

// Dropped reports how many requests were refused.
func (p *PathBlackout) Dropped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// RoundTrip implements http.RoundTripper.
func (p *PathBlackout) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	var hit bool
	for match := range p.blocked {
		if strings.Contains(req.URL.Path, match) {
			hit = true
			break
		}
	}
	if hit {
		p.dropped++
	}
	p.mu.Unlock()
	if hit {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("faultinject: connection for %s refused (path blocked)", req.URL.Path)
	}
	return p.base.RoundTrip(req)
}
