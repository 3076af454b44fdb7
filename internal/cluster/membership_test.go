package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/httpapi"
	"felip/internal/wire"
)

// fakeClock is a hand-driven time source for liveness tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRendezvousStability pins the property elastic routing depends on:
// adding shard n+1 moves roughly 1/(n+1) of the keys, and every moved key
// moves TO the new shard — no key shuffles between surviving shards, so no
// surviving shard's dedup index ever sees a key it didn't own before.
func TestRendezvousStability(t *testing.T) {
	const keys = 6000
	names := []string{"shard0", "shard1", "shard2", "shard3"}
	grown := append(append([]string(nil), names...), "shard4")

	counts := make(map[int]int)
	moved := 0
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("user-%d", i)
		before := RendezvousFor(id, names)
		after := RendezvousFor(id, grown)
		counts[after]++
		if grown[after] != names[before] {
			moved++
			if grown[after] != "shard4" {
				t.Fatalf("key %q moved from %s to %s, not to the new shard", id, names[before], grown[after])
			}
		}
	}

	// Expected fraction moved is 1/5; allow generous sampling slack.
	frac := float64(moved) / keys
	if frac < 0.12 || frac > 0.28 {
		t.Fatalf("adding shard 5 moved %.1f%% of keys, want ~20%%", 100*frac)
	}
	// Every shard — including the new one — must carry real traffic.
	for i, name := range grown {
		if counts[i] < keys/(len(grown)*4) {
			t.Fatalf("shard %s owns only %d of %d keys", name, counts[i], keys)
		}
	}
	// Determinism and order-independence: the winner is a function of the name
	// set, not its order.
	reversed := []string{"shard3", "shard2", "shard1", "shard0"}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("user-%d", i)
		if names[RendezvousFor(id, names)] != reversed[RendezvousFor(id, reversed)] {
			t.Fatalf("key %q routes differently under reordered membership", id)
		}
	}
}

func TestMembershipDuplicateAndReplacementRegistration(t *testing.T) {
	clk := newFakeClock()
	ms := newMembership(clk.now, 10*time.Second)

	reg := wire.RegisterMessage{Name: "s1", Base: "http://a", Role: wire.RolePrimary}
	epoch1, join, err := ms.register(reg, 3)
	if err != nil || join != 3 {
		t.Fatalf("first register: epoch %d join %d err %v", epoch1, join, err)
	}
	// Duplicate registration is idempotent: same epoch, join round preserved.
	epoch2, join2, err := ms.register(reg, 7)
	if err != nil || epoch2 != epoch1 || join2 != 3 {
		t.Fatalf("duplicate register: epoch %d join %d err %v (want epoch %d join 3)", epoch2, join2, err, epoch1)
	}
	// A different node claiming a live shard's name is refused.
	if _, _, err := ms.register(wire.RegisterMessage{Name: "s1", Base: "http://b", Role: wire.RolePrimary}, 7); err == nil {
		t.Fatal("conflicting registration for a live shard accepted")
	}
	// Once the primary is dead, a replacement at a new address is accepted and
	// bumps the epoch so clients re-resolve.
	if _, err := ms.heartbeat(wire.HeartbeatMessage{Name: "s1", Base: "http://a", Role: wire.RolePrimary}); err != nil {
		t.Fatal(err)
	}
	clk.advance(11 * time.Second)
	ms.lapsed()
	if !ms.members["s1"].dead {
		t.Fatal("lapsed primary not marked dead")
	}
	epoch3, join3, err := ms.register(wire.RegisterMessage{Name: "s1", Base: "http://b", Role: wire.RolePrimary}, 7)
	if err != nil || epoch3 <= epoch2 || join3 != 3 {
		t.Fatalf("replacement register: epoch %d join %d err %v", epoch3, join3, err)
	}
	if ms.members["s1"].base != "http://b" || ms.members["s1"].dead {
		t.Fatalf("replacement not applied: %+v", ms.members["s1"])
	}
}

func TestMembershipHeartbeatFlappingAroundTimeout(t *testing.T) {
	clk := newFakeClock()
	ms := newMembership(clk.now, 10*time.Second)

	if _, _, err := ms.register(wire.RegisterMessage{Name: "s1", Base: "http://p", Role: wire.RolePrimary}, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ms.register(wire.RegisterMessage{Name: "s1", Base: "http://f", Role: wire.RoleFollower, Follows: "s1"}, 1); err != nil {
		t.Fatal(err)
	}
	beat := func(base, role string) error {
		_, err := ms.heartbeat(wire.HeartbeatMessage{Name: "s1", Base: base, Role: role})
		return err
	}

	// t=0: both beat. t=8: only the follower beats. t=11: the primary is one
	// second past the timeout, the follower three seconds fresh — a promotion
	// candidate exists.
	if err := beat("http://p", wire.RolePrimary); err != nil {
		t.Fatal(err)
	}
	clk.advance(8 * time.Second)
	if err := beat("http://f", wire.RoleFollower); err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	cands := ms.lapsed()
	if len(cands) != 1 || cands[0].name != "s1" || cands[0].followerBase != "http://f" {
		t.Fatalf("candidates = %+v", cands)
	}

	// The primary flaps back before the promotion lands: its beat revives it,
	// and the now-stale promotion must be refused.
	if err := beat("http://p", wire.RolePrimary); err != nil {
		t.Fatalf("reviving beat refused: %v", err)
	}
	if ms.promote("s1", "http://f") {
		t.Fatal("promotion applied over a revived primary")
	}
	if ms.members["s1"].base != "http://p" {
		t.Fatal("revived primary lost its address")
	}

	// It lapses again with the follower still fresh; this time the promotion
	// applies, and the superseded primary's next beat is refused by name.
	clk.advance(11 * time.Second)
	if err := beat("http://f", wire.RoleFollower); err != nil {
		t.Fatal(err)
	}
	cands = ms.lapsed()
	if len(cands) != 1 {
		t.Fatalf("candidates after second lapse = %+v", cands)
	}
	epochBefore := ms.epoch
	if !ms.promote("s1", "http://f") {
		t.Fatal("promotion refused")
	}
	if ms.epoch <= epochBefore || ms.members["s1"].base != "http://f" || ms.members["s1"].follower != nil {
		t.Fatalf("promotion state: epoch %d member %+v", ms.epoch, ms.members["s1"])
	}
	if err := beat("http://p", wire.RolePrimary); err == nil {
		t.Fatal("superseded primary's heartbeat accepted: split brain")
	}
}

// TestShardJoinsWhileRoundIsSealing drills the registration race the join
// round exists for: a shard that registers while the coordinator is mid-pull
// joins the NEXT round — the in-flight merge's pull set never changes — and
// is driven from the next round on.
func TestShardJoinsWhileRoundIsSealing(t *testing.T) {
	const n = 600
	schema := dataset.MixedSchema(2, 32, 2, 4)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 311}
	ctx := context.Background()

	srv, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(t.Logf)
	srv.SetShardID("shard0")
	// Gate the state pull so the test can hold the round "sealing" open.
	gate := make(chan struct{})
	var gateOnce sync.Once
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard/state" {
			<-gate
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { gateOnce.Do(func() { close(gate) }) })

	coord, err := New(Config{
		Schema: schema, N: n, Opts: opts,
		Shards: []string{ts.URL},
		Retry:  fastRetry(3),
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Feed the first shard a couple of reports so the round is non-empty.
	plan, err := httpapi.Dial(ts.URL, nil).Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.NewNormal().Generate(schema, 32, 313)
	cl := httpapi.Dial(ts.URL, nil)
	for row := 0; row < 32; row++ {
		id, rep := deviceReport(t, specs, opts.Epsilon, ds, row, 500)
		if _, err := cl.ReportWithID(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.FinalizeRound(ctx)
		done <- err
	}()

	// Wait until the finalize is actually holding the seal open, then register
	// a new shard mid-seal.
	deadline := time.After(5 * time.Second)
	for {
		coord.mu.Lock()
		sealing := coord.sealing
		coord.mu.Unlock()
		if sealing {
			break
		}
		select {
		case <-deadline:
			t.Fatal("finalize never entered sealing")
		case <-time.After(time.Millisecond):
		}
	}

	joiner, err := httpapi.NewServer(schema, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	joiner.SetLogger(t.Logf)
	joiner.SetShardID("shard-late")
	jts := httptest.NewServer(joiner.Handler())
	t.Cleanup(jts.Close)

	resp, err := coord.RegisterShard(wire.RegisterMessage{Name: "shard-late", Base: jts.URL, Role: wire.RolePrimary})
	if err != nil {
		t.Fatal(err)
	}
	if resp.JoinRound != 2 {
		t.Fatalf("registering mid-seal joined round %d, want 2", resp.JoinRound)
	}
	if err := joiner.Recover(nil, resp.JoinRound); err != nil {
		t.Fatal(err)
	}

	// Release the seal; the merge must cover exactly the pre-join shard.
	gateOnce.Do(func() { close(gate) })
	if err := <-done; err != nil {
		t.Fatalf("finalize: %v", err)
	}
	st := coord.Status()
	if st.Reports != 32 || len(st.Shards) != 1 {
		t.Fatalf("round 1 merged %d reports over %d shards, want 32 over 1", st.Reports, len(st.Shards))
	}

	// Advancing to round 2 drives both shards; the joiner is already there.
	if round, err := coord.AdvanceRound(ctx, 2); err != nil || round != 2 {
		t.Fatalf("advance: %d, %v", round, err)
	}
	if joiner.Round() != 2 {
		t.Fatalf("joiner in round %d after advance", joiner.Round())
	}
	// And the joiner is now part of the membership the routing layer sees.
	names := coord.MembershipSnapshot().Names()
	if len(names) != 2 || names[1] != "shard-late" {
		t.Fatalf("membership after join = %v", names)
	}
}

// TestFinalizeCancelsSiblingPullsOnFatalError pins the context satellite: a
// wedged shard must not hold the round open once another shard's pull already
// failed for good, and a dead round deadline must abort the pull entirely.
func TestFinalizeCancelsSiblingPullsOnFatalError(t *testing.T) {
	schema := dataset.MixedSchema(2, 32, 2, 4)
	opts := core.Options{Strategy: core.OHG, Epsilon: 1.2, Seed: 317}

	// Shard A answers 404 (non-retryable) instantly; shard B wedges until its
	// request is cancelled.
	fatal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such shard"}`, http.StatusNotFound)
	}))
	t.Cleanup(fatal.Close)
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(wedged.Close)

	coord, err := New(Config{
		Schema: schema, N: 100, Opts: opts,
		Shards: []string{fatal.URL, wedged.URL},
		Retry:  httpapi.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = coord.FinalizeRound(context.Background())
	if err == nil {
		t.Fatal("finalize succeeded against a 404 shard")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("finalize took %v: the wedged sibling pull was not cancelled", elapsed)
	}

	// A round deadline that expires mid-pull aborts promptly too.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	coord2, err := New(Config{
		Schema: schema, N: 100, Opts: opts,
		Shards: []string{wedged.URL},
		Retry:  httpapi.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := coord2.FinalizeRound(ctx); err == nil {
		t.Fatal("finalize outlived its round deadline")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline-bound finalize took %v", elapsed)
	}
}
