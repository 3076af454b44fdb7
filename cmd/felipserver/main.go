// Command felipserver runs a FELIP aggregator service over HTTP: it
// publishes the grid plan, accepts ε-LDP reports from devices, and answers
// queries once the round is finalized (see internal/httpapi for the API).
//
// Start a round and let real clients report:
//
//	felipserver -addr :8377 -eps 1.0 -n 100000
//
// Add -wal to make rounds durable: every accepted report is logged before
// it is acknowledged, and a restarted server replays the logs and resumes
// where it left off (re-serving any round that was already finalized). Each
// collection round gets its own segment — round 1 in the given file, round k
// in <file>.r<k> — so POST /v1/nextround keeps working across restarts. Every
// start goes through httpapi.Server.Recover, which refuses a chain with a
// missing segment rather than serve a history with rounds left out:
//
//	felipserver -addr :8377 -eps 1.0 -n 100000 -wal round.wal
//
// Add -archive to snapshot every finalized round into a directory: restarts
// restore from the newest snapshot instead of replaying the whole WAL (only
// the tail segments past the snapshot are replayed), a round's segment is
// deleted once its own round is archived (a round whose snapshot failed
// keeps its segment), rounds a WAL-only server finalized are archived at the
// first start with -archive, and every archived round stays queryable —
// GET /v1/rounds lists them, and queries take a round (or rounds=a..b
// window) parameter:
//
//	felipserver -addr :8377 -eps 1.0 -n 100000 -seed 7 \
//	    -wal round.wal -archive rounds.archive -retain 8
//
// Or spin up a self-contained demo that simulates the population in-process,
// finalizes, and then serves queries:
//
//	felipserver -addr :8377 -eps 1.0 -simulate 100000 -dataset ipums-sim
//	curl 'http://localhost:8377/v1/query?where=num0%3D16..48'
//
// The same binary also runs as a sharded ingest cluster (see
// internal/cluster): start shard servers with -role=shard, then a
// coordinator naming them with -shards. The plan flags, -eps and -seed must
// match across every node — the plan is deterministic in them, so the nodes
// agree without talking:
//
//	felipserver -role shard -addr :8471 -seed 7 -wal shard0.wal
//	felipserver -role shard -addr :8472 -seed 7 -wal shard1.wal
//	felipserver -role shard -addr :8473 -seed 7 -wal shard2.wal
//	felipserver -role coordinator -addr :8377 -seed 7 \
//	    -shards http://localhost:8471,http://localhost:8472,http://localhost:8473
//
// Devices report through cluster.Client (cluster.NewClient with the shard
// list, or cluster.DialCluster with the coordinator alone), which sends each
// report to the shard cluster.RendezvousFor picks from its report_id; analysts
// POST /v1/finalize to the coordinator — it pulls every shard's sealed
// partial state, merges the exact integer counts, estimates once, and serves
// /v1/query answers bit-identical to a single-node round over the same
// reports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"felip/internal/archive"
	"felip/internal/cluster"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/domain"
	"felip/internal/fo"
	"felip/internal/httpapi"
	"felip/internal/reportlog"
	"felip/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":8377", "listen address")
		eps      = flag.Float64("eps", 1.0, "privacy budget ε")
		n        = flag.Int("n", 100000, "expected population size (used for grid planning)")
		strategy = flag.String("strategy", "OHG", "FELIP strategy: OUG|OHG")
		modeFlag = flag.String("mode", "", "reporting mode: FELIP (default), SPL, or RS+FD — the whole deployment (coordinator, shards, followers) must agree")
		kNum     = flag.Int("knum", 3, "number of numerical attributes")
		dNum     = flag.Int("dnum", 64, "numerical domain size")
		kCat     = flag.Int("kcat", 3, "number of categorical attributes")
		dCat     = flag.Int("dcat", 8, "categorical domain size")
		sel      = flag.Float64("selectivity", 0.5, "grid-sizing selectivity prior")
		seed     = flag.Uint64("seed", 0, "seed (0 = random)")
		simulate = flag.Int("simulate", 0, "simulate this many users in-process and finalize before serving")
		simData  = flag.String("dataset", "ipums-sim", "generator for -simulate: uniform|normal|ipums-sim|loan-sim")
		walPath  = flag.String("wal", "", "write-ahead log path; reports are durable and the round survives restarts (the plan flags and -seed must match across restarts)")
		archDir  = flag.String("archive", "", "archive directory: every finalized round is snapshotted durably (and its WAL segments truncated), restarts restore from the newest snapshot plus only the WAL tail, and archived rounds stay queryable via round targeting and GET /v1/rounds")
		retain   = flag.Int("retain", 0, "keep only the newest K archived rounds (0 = keep all)")
		role     = flag.String("role", "standalone", "node role: standalone|shard|coordinator|follower")
		shards   = flag.String("shards", "", "comma-separated shard base URLs (coordinator role; optional — shards may instead self-register)")
		shardID  = flag.String("shard-id", "", "logical shard name (shard/follower role; default the listen address)")
		register = flag.String("register", "", "coordinator base URL to register with and heartbeat to (shard/follower role)")
		public   = flag.String("public", "", "this node's public base URL as other nodes should dial it (default http://<addr>)")
		follow   = flag.String("follow", "", "primary base URL to replicate (follower role)")
		beat     = flag.Duration("heartbeat", 2*time.Second, "heartbeat interval to the coordinator (shard/follower role)")
		beatTTL  = flag.Duration("heartbeat-timeout", 10*time.Second, "declare a registered shard dead after this much heartbeat silence and promote its follower (coordinator role; 0 disables)")
		long     = flag.Bool("longitudinal", false, "run memoized two-stage longitudinal rounds: -eps is the per-round ε₁, devices report over POST /v1/report, batch frames are refused")
		epsPerm  = flag.Float64("eps-perm", 0, "permanent-stage budget ε_perm for -longitudinal (must be ≥ -eps; default 2×ε)")
	)
	flag.Parse()

	var strat core.Strategy
	switch *strategy {
	case "OUG", "oug":
		strat = core.OUG
	case "OHG", "ohg":
		strat = core.OHG
	default:
		fmt.Fprintf(os.Stderr, "felipserver: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	schema := dataset.MixedSchema(*kNum, *dNum, *kCat, *dCat)
	planN := *n
	if *simulate > 0 {
		planN = *simulate
	}
	mode, err := fo.ParseReportMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "felipserver: %v\n", err)
		os.Exit(2)
	}
	opts := core.Options{
		Strategy:    strat,
		Epsilon:     *eps,
		Selectivity: *sel,
		Seed:        *seed,
		Mode:        mode,
	}
	if *long {
		perm := *epsPerm
		if perm == 0 {
			perm = 2 * *eps
		}
		opts.Longitudinal = &fo.Longitudinal{EpsPerm: perm, Eps1: *eps}
	} else if *epsPerm != 0 {
		fmt.Fprintln(os.Stderr, "felipserver: -eps-perm only applies with -longitudinal")
		os.Exit(2)
	}

	if *role == "coordinator" {
		runCoordinator(schema, planN, opts, *addr, *shards, *walPath, *archDir, *retain, *simulate, *seed, *beatTTL)
		return
	}
	if *role == "follower" {
		runFollower(schema, planN, opts, *addr, *shardID, *public, *follow, *register, *walPath, *beat, *seed)
		return
	}
	if *role != "standalone" && *role != "shard" {
		fmt.Fprintf(os.Stderr, "felipserver: unknown role %q\n", *role)
		os.Exit(2)
	}

	srv, err := httpapi.NewServer(schema, planN, opts)
	if err != nil {
		log.Fatal("felipserver: ", err)
	}
	srv.SetLogger(log.Printf)
	var shardName string
	joined := 1
	if *role == "shard" {
		if *simulate > 0 {
			// Simulation finalizes the round locally; a shard's round is closed
			// by the coordinator's state pull instead.
			log.Fatal("felipserver: -simulate is standalone-only; a shard's round is driven by its coordinator")
		}
		shardName = *shardID
		if shardName == "" {
			shardName = *addr
		}
		srv.SetShardID(shardName)
		if *register != "" {
			// Register with the coordinator's membership before any local round
			// state exists: the response names the first round this shard's
			// reports count toward, and a fresh shard opens that round below.
			coordCl := httpapi.DialRetrying(*register, nil, httpapi.RetryPolicy{MaxAttempts: 5, Timeout: 10 * time.Second})
			resp, err := coordCl.RegisterShard(context.Background(), wire.RegisterMessage{
				Name: shardName,
				Base: publicBase(*addr, *public),
				Role: wire.RolePrimary,
			})
			if err != nil {
				log.Fatal("felipserver: registering with coordinator: ", err)
			}
			joined = resp.JoinRound
			log.Printf("felipserver: shard %q registered with %s (epoch %d, joins round %d)",
				shardName, *register, resp.Epoch, joined)
		}
		log.Printf("felipserver: shard %q awaiting coordinator", shardName)
	}

	var segs *reportlog.Segments
	if *walPath != "" {
		if *simulate > 0 {
			// Simulated reports are fed to the collector in-process and never
			// hit the report log; finalizing would still write a finalize
			// marker, leaving a WAL that cannot be replayed (a round with a
			// marker but no reports). Refuse the combination up front.
			log.Fatal("felipserver: -simulate bypasses the report log; use -wal only with real reports")
		}
		if *seed == 0 {
			// A random plan cannot be rebuilt after a crash, which would
			// strand the log's reports in groups that no longer exist.
			log.Fatal("felipserver: -wal requires an explicit -seed so a restart rebuilds the same plan")
		}
		// Round 1 lives in the given file; round k in <file>.r<k>.
		segs = reportlog.NewSegments(*walPath)
	}

	var store *archive.Store
	if *archDir != "" {
		if *seed == 0 {
			// Restoring a snapshot requires rebuilding the identical plan.
			log.Fatal("felipserver: -archive requires an explicit -seed so a restart rebuilds the same plan")
		}
		store, err = archive.Open(*archDir, archive.Options{
			RetainRounds:    *retain,
			PlanFingerprint: srv.PlanFingerprint(),
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatal("felipserver: ", err)
		}
		if err := srv.UseArchive(store, segs); err != nil {
			log.Fatal("felipserver: ", err)
		}
	}

	// The one restart path: serve the newest archived round, replay the
	// segments after it (or the whole chain), archive what the replay
	// re-finalizes, and warm up. A fresh server opens its join round.
	if err := srv.Recover(segs, joined); err != nil {
		log.Fatal("felipserver: ", err)
	}

	if *simulate > 0 && store != nil && store.LatestRound() > 0 {
		log.Printf("felipserver: round %d restored from archive; skipping -simulate", store.LatestRound())
	} else if *simulate > 0 {
		log.Printf("felipserver: simulating %d %s users in-process", *simulate, *simData)
		if err := httpapi.Simulate(srv, *simData, *simulate, *seed); err != nil {
			log.Fatal("felipserver: ", err)
		}
		log.Printf("felipserver: round finalized; /v1/query is live")
	}

	if *role == "shard" && *register != "" {
		// Heartbeat until shutdown so the coordinator never mistakes this shard
		// for dead while it is serving.
		hbCtx, hbCancel := context.WithCancel(context.Background())
		defer hbCancel()
		coordCl := httpapi.DialRetrying(*register, nil, httpapi.RetryPolicy{MaxAttempts: 2, Timeout: 5 * time.Second})
		pub := publicBase(*addr, *public)
		go func() {
			t := time.NewTicker(*beat)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					_, err := coordCl.ShardHeartbeat(hbCtx, wire.HeartbeatMessage{
						Name:   shardName,
						Base:   pub,
						Role:   wire.RolePrimary,
						Round:  srv.Round(),
						WALPos: srv.WALPos(),
					})
					if err != nil && hbCtx.Err() == nil {
						log.Printf("felipserver: heartbeat to %s: %v", *register, err)
					}
				}
			}
		}()
	}

	// Sync and close the WAL last, after in-flight reports have drained, so
	// every acknowledged report is on disk before the process exits.
	serveLoop(srv.Handler(), *addr,
		fmt.Sprintf("felipserver: %s, schema %v, ε=%v, strategy %v, listening on %s", *role, schema, *eps, strat, *addr),
		srv.Close)
}

// runCoordinator starts the cluster merge coordinator: no local ingest, no
// WAL — its durable state is the shards' — just membership, the shard round
// walk and the merged round, an httpapi.Server fed shard states instead of
// reports. With -archive, that server snapshots each merged round, and a
// restarted coordinator comes up through its Recover (logging "httpapi:
// restored round N from archive DIR"), re-serving its rounds without
// re-pulling the shards.
func runCoordinator(schema *domain.Schema, planN int, opts core.Options, addr, shards, walPath, archiveDir string, retain, simulate int, seed uint64, beatTTL time.Duration) {
	if walPath != "" {
		log.Fatal("felipserver: the coordinator keeps no report log; -wal belongs on the shards")
	}
	if simulate > 0 {
		log.Fatal("felipserver: -simulate is standalone-only")
	}
	if seed == 0 {
		// The coordinator and shards must rebuild the identical plan.
		log.Fatal("felipserver: -role coordinator requires an explicit -seed shared with every shard")
	}
	var bases []string
	for _, s := range strings.Split(shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			bases = append(bases, s)
		}
	}
	var store *archive.Store
	if archiveDir != "" {
		// The plan is deterministic in the flags, so a throwaway server
		// yields the fingerprint the store must match.
		probe, err := httpapi.NewServer(schema, planN, opts)
		if err != nil {
			log.Fatal("felipserver: ", err)
		}
		store, err = archive.Open(archiveDir, archive.Options{
			RetainRounds:    retain,
			PlanFingerprint: probe.PlanFingerprint(),
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatal("felipserver: ", err)
		}
	}
	coord, err := cluster.New(cluster.Config{
		Schema:           schema,
		N:                planN,
		Opts:             opts,
		Shards:           bases,
		HeartbeatTimeout: beatTTL,
		Archive:          store,
		Retry: httpapi.RetryPolicy{
			MaxAttempts: 5,
			Timeout:     30 * time.Second,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal("felipserver: ", err)
	}
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	coord.StartLiveness(lctx, 0)
	serveLoop(coord.Handler(), addr,
		fmt.Sprintf("felipserver: coordinating %d static shards (dynamic registration open), schema %v, ε=%v, listening on %s",
			len(bases), schema, opts.Epsilon, addr),
		func() error { return nil })
}

// runFollower replicates one primary's WAL and stands by to take its place
// when the coordinator says so.
func runFollower(schema *domain.Schema, planN int, opts core.Options, addr, shardID, public, follow, register, walPath string, beat time.Duration, seed uint64) {
	if shardID == "" {
		log.Fatal("felipserver: -role follower requires -shard-id naming the logical shard it replicates")
	}
	if follow == "" || register == "" {
		log.Fatal("felipserver: -role follower requires -follow (primary URL) and -register (coordinator URL)")
	}
	if walPath == "" {
		log.Fatal("felipserver: -role follower requires -wal for the shipped segment chain")
	}
	if seed == 0 {
		// A promoted follower must rebuild the identical plan.
		log.Fatal("felipserver: -role follower requires an explicit -seed shared with the cluster")
	}
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		Schema:      schema,
		N:           planN,
		Opts:        opts,
		Name:        shardID,
		Base:        publicBase(addr, public),
		Primary:     follow,
		Coordinator: register,
		WALPath:     walPath,
		Retry:       httpapi.RetryPolicy{MaxAttempts: 2, Timeout: 10 * time.Second},
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal("felipserver: ", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Register(ctx); err != nil {
		log.Fatal("felipserver: registering follower: ", err)
	}
	f.Run(ctx, beat/4, beat)
	serveLoop(f.Handler(), addr,
		fmt.Sprintf("felipserver: follower for shard %q replicating %s, listening on %s", shardID, follow, addr),
		func() error { return nil })
}

// publicBase derives the URL other nodes dial this one at: the -public flag
// verbatim, or http://localhost<addr> for a bare ":port" listen address.
func publicBase(addr, public string) string {
	if public != "" {
		return strings.TrimRight(public, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

// serveLoop runs the HTTP server until SIGINT/SIGTERM, drains connections,
// and runs shutdown last.
func serveLoop(handler http.Handler, addr, banner string, shutdown func() error) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Print(banner)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("felipserver: %v; draining connections", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("felipserver: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("felipserver: ", err)
		}
	}
	if err := shutdown(); err != nil {
		log.Fatal("felipserver: closing WAL: ", err)
	}
	log.Printf("felipserver: clean shutdown")
}
