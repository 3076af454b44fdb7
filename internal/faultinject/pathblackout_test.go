package faultinject

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPathBlackoutDropsOnlyMatchingPaths: the asymmetric partition — one
// endpoint dark, the rest of the same host flowing.
func TestPathBlackoutDropsOnlyMatchingPaths(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	pb := NewPathBlackout(nil)
	cl := &http.Client{Transport: pb}

	get := func(path string) error {
		resp, err := cl.Get(ts.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return err
	}

	pb.Block("/v1/shard/heartbeat")
	if err := get("/v1/shard/heartbeat"); err == nil {
		t.Fatal("blocked path served")
	}
	if err := get("/v1/report"); err != nil {
		t.Fatalf("unblocked path failed: %v", err)
	}
	if err := get("/v1/shard/heartbeat"); err == nil {
		t.Fatal("blocked path served on retry")
	}
	if pb.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", pb.Dropped())
	}

	pb.Unblock("/v1/shard/heartbeat")
	if err := get("/v1/shard/heartbeat"); err != nil {
		t.Fatalf("unblocked path still dark: %v", err)
	}
}
