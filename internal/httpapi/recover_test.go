package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/reportlog"
)

// These tests pin Recover, the one restart path, and the one rule for
// deleting WAL segments, on the cases where the hand-copied restart
// sequences lost or stranded acknowledged reports.

// recoverNode is one durable server behind a real HTTP listener.
type recoverNode struct {
	srv *Server
	ts  *httptest.Server
	cl  *Client
}

// newRecoverServer builds a server over the test plan in the given reporting
// mode and attaches the archive at archDir unless it is empty.
func newRecoverServer(t *testing.T, n int, mode fo.ReportMode, archDir string, segs *reportlog.Segments) *Server {
	t.Helper()
	srv, err := NewServer(dataset.MixedSchema(2, 32, 2, 4), n, core.Options{Strategy: core.OHG, Epsilon: 2, Seed: 11, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	if archDir == "" {
		return srv
	}
	store, err := archive.Open(archDir, archive.Options{PlanFingerprint: srv.PlanFingerprint(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseArchive(store, segs); err != nil {
		t.Fatal(err)
	}
	return srv
}

// bootRecovered starts a server from segs (and the archive at archDir, if
// any) through Recover.
func bootRecovered(t *testing.T, n int, archDir string, segs *reportlog.Segments) *recoverNode {
	t.Helper()
	srv := newRecoverServer(t, n, core.ModeFELIP, archDir, segs)
	if err := srv.Recover(segs, 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &recoverNode{srv: srv, ts: ts, cl: Dial(ts.URL, ts.Client())}
}

// stop closes the listener and the WAL like a dying process.
func (nd *recoverNode) stop(t *testing.T) {
	t.Helper()
	nd.ts.Close()
	if err := nd.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// collect reports a fresh population of n into the open round and, unless
// open is set, finalizes it and opens the next round.
func (nd *recoverNode) collect(t *testing.T, n int, seed uint64, open bool) {
	t.Helper()
	ctx := context.Background()
	reportAll(t, nd.cl, dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, seed), seed+1)
	if open {
		return
	}
	if count, err := nd.cl.Finalize(ctx); err != nil || count != n {
		t.Fatalf("finalize: %d, %v", count, err)
	}
	if _, err := nd.cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}
}

func existing(t *testing.T, segs *reportlog.Segments) []int {
	t.Helper()
	rounds, err := segs.Existing()
	if err != nil {
		t.Fatal(err)
	}
	return rounds
}

// TestRecoverRefusesChainGap: a chain holding segments 1 and 3 is refused,
// with and without an archive, and the error names round 2's segment.
// Replaying round 3 over round 1 would count its reports into the wrong
// round, and stopping at the gap would strand them.
func TestRecoverRefusesChainGap(t *testing.T) {
	const n = 200
	for _, withArchive := range []bool{false, true} {
		t.Run(fmt.Sprintf("archive=%v", withArchive), func(t *testing.T) {
			dir := t.TempDir()
			segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))
			nd := bootRecovered(t, n, "", segs)
			nd.collect(t, n, 101, false)
			nd.collect(t, n, 103, false)
			nd.collect(t, n/2, 105, true)
			nd.stop(t)
			if err := os.Remove(segs.Path(2)); err != nil {
				t.Fatal(err)
			}

			archDir := ""
			if withArchive {
				archDir = filepath.Join(dir, "arch")
			}
			srv := newRecoverServer(t, n, core.ModeFELIP, archDir, segs)
			err := srv.Recover(segs, 1)
			srv.Close()
			if err == nil || !strings.Contains(err.Error(), segs.Path(2)) {
				t.Fatalf("Recover over segments [1 3] = %v, want a refusal naming %s", err, segs.Path(2))
			}
			if got := existing(t, segs); !reflect.DeepEqual(got, []int{1, 3}) {
				t.Fatalf("segments after the refusal = %v, want [1 3] untouched", got)
			}
		})
	}
}

// TestRecoverArchivesEveryReplayedRound: a WAL written without an archive
// holds two finalized rounds and an open third. Recovering it with an
// archive attached archives both finalized rounds before deleting their
// segments, and round 1 answers from the archive bit-identically to its
// answers before the restart.
func TestRecoverArchivesEveryReplayedRound(t *testing.T) {
	const n = 300
	ctx := context.Background()
	wheres := []string{"num0=8..23", "num0=0..15; cat0=0,1", "num1=4..27; cat1=1,2"}
	dir := t.TempDir()
	segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))

	nd := bootRecovered(t, n, "", segs)
	reportAll(t, nd.cl, dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, 201), 202)
	if _, err := nd.cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(wheres))
	for i, where := range wheres {
		resp, err := nd.cl.Query(ctx, where)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Estimate
	}
	if _, err := nd.cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}
	nd.collect(t, n, 203, false)
	nd.collect(t, n/3, 205, true)
	nd.stop(t)

	nd = bootRecovered(t, n, filepath.Join(dir, "arch"), segs)
	defer nd.stop(t)
	rounds, err := nd.cl.Rounds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds.Rounds) != 2 || !rounds.Rounds[0].Archived || !rounds.Rounds[1].Archived {
		t.Fatalf("rounds after recovery = %+v, want rounds 1 and 2 archived", rounds)
	}
	if got := existing(t, segs); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("segments after recovery = %v, want only the open round's [3]", got)
	}
	for i, where := range wheres {
		resp, err := nd.cl.QueryRound(ctx, 1, where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Estimate != want[i] {
			t.Fatalf("archived round 1 %q = %v, want %v as before the restart", where, resp.Estimate, want[i])
		}
	}
	st, err := nd.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 || st.ServedRound != 2 || st.Reports != n/3 {
		t.Fatalf("recovered status = %+v, want round 3 open with %d reports and round 2 served", st, n/3)
	}
}

// TestFailedSnapshotKeepsSegment: round 1 closes while the archive
// directory is missing, so its snapshot fails and its segment is the
// round's only copy; round 2 then closes normally. Neither that close nor a
// restart may delete round 1's segment, because the archive never held
// round 1.
func TestFailedSnapshotKeepsSegment(t *testing.T) {
	const n = 300
	ctx := context.Background()
	dir := t.TempDir()
	archDir := filepath.Join(dir, "arch")
	segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))

	nd := bootRecovered(t, n, archDir, segs)
	reportAll(t, nd.cl, dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, 301), 302)
	if err := os.Rename(archDir, archDir+".away"); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(archDir+".away", archDir); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.cl.NextRound(ctx); err != nil {
		t.Fatal(err)
	}
	nd.collect(t, n, 303, true)
	if _, err := nd.cl.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	if got := existing(t, segs); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("segments after round 2 closed = %v, want [1]: round 1 was never archived", got)
	}
	nd.stop(t)

	nd = bootRecovered(t, n, archDir, segs)
	defer nd.stop(t)
	if got := existing(t, segs); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("segments after restart = %v, want [1] kept", got)
	}
	recs, err := reportlog.VerifySegment(mustRead(t, segs.Path(1)))
	if err != nil || len(recs) != n+1 {
		t.Fatalf("kept segment holds %d records (err %v), want %d reports and the finalize marker", len(recs), err, n)
	}
	st, err := nd.cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored || st.Round != 2 || st.ServedRound != 2 || st.Reports != n {
		t.Fatalf("restarted status = %+v, want round 2 restored from the archive", st)
	}
}

// TestRecoverRefusesServerInUse: Recover only brings up a fresh server.
func TestRecoverRefusesServerInUse(t *testing.T) {
	segs := reportlog.NewSegments(filepath.Join(t.TempDir(), "round.wal"))
	nd := bootRecovered(t, 100, "", segs)
	defer nd.stop(t)
	if err := nd.srv.Recover(segs, 1); err == nil {
		t.Fatal("Recover ran twice on one server")
	}
}

// TestRestoredShardRepullsSealedRound: a durable shard with an archive is
// sealed by a state pull, then restarted twice. The first restart replays the
// round from its WAL, archives it and deletes the segment; the second serves
// the round from the archive alone. A coordinator that re-pulls after either
// restart must receive the first pull's report count and checksum; a round
// whose snapshot lost its partial states refuses the pull with 409. SPL runs
// too: its reports are perturbed at ε/m, not at the round's ε.
func TestRestoredShardRepullsSealedRound(t *testing.T) {
	const n = 200
	ctx := context.Background()
	ds := dataset.NewNormal().Generate(dataset.MixedSchema(2, 32, 2, 4), n, 131)
	for _, mode := range []fo.ReportMode{fo.ModeFELIP, fo.ModeSPL} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			segs := reportlog.NewSegments(filepath.Join(dir, "round.wal"))
			boot := func() *recoverNode {
				srv := newRecoverServer(t, n, mode, filepath.Join(dir, "arch"), segs)
				srv.SetShardID("shard0")
				if err := srv.Recover(segs, 1); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				return &recoverNode{srv: srv, ts: ts, cl: Dial(ts.URL, ts.Client())}
			}

			nd := boot()
			plan, err := nd.cl.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := plan.Specs()
			if err != nil {
				t.Fatal(err)
			}
			device, err := core.NewModeClient(specs, mode, plan.Epsilon, 137)
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for row := 0; row < n; row++ {
				id := fmt.Sprintf("dev-%d", row)
				reps, err := device.PerturbAll(DeriveGroup(id, len(specs)), func(attr int) int { return ds.Value(row, attr) })
				if err != nil {
					t.Fatal(err)
				}
				for j, rep := range reps {
					if _, err := nd.cl.ReportModeWithID(ctx, fmt.Sprintf("%s-%d", id, j), mode, rep); err != nil {
						t.Fatal(err)
					}
					sent++
				}
			}
			first, err := nd.cl.ShardState(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if first.Reports != sent {
				t.Fatalf("first pull: %d reports, want %d", first.Reports, sent)
			}
			for restart := 1; restart <= 2; restart++ {
				nd.stop(t)
				nd = boot()
				again, err := nd.cl.ShardState(ctx)
				if err != nil {
					t.Fatalf("pull after restart %d: %v", restart, err)
				}
				if again.Reports != first.Reports || again.Checksum != first.Checksum {
					t.Fatalf("pull after restart %d: %d reports, checksum %d; first pull: %d reports, checksum %d",
						restart, again.Reports, again.Checksum, first.Reports, first.Checksum)
				}
			}
			if got := existing(t, segs); len(got) != 0 {
				t.Fatalf("segments %v survive; the second restart did not serve the round from the archive alone", got)
			}
			nd.stop(t)

			// A snapshot without partial states cannot be re-exported: the
			// pull is refused rather than answered with an empty round.
			store, err := archive.Open(filepath.Join(dir, "arch"), archive.Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := store.Load(1)
			if err != nil {
				t.Fatal(err)
			}
			snap.Partials = nil
			if err := store.WriteRound(snap); err != nil {
				t.Fatal(err)
			}
			nd = boot()
			defer nd.stop(t)
			if _, err := nd.cl.ShardState(ctx); err == nil || !strings.Contains(err.Error(), "409") {
				t.Fatalf("pull on a round restored without partial states: %v, want 409", err)
			}
		})
	}
}
