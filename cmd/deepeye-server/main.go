// Command deepeye-server exposes DeepEye over HTTP.
//
//	deepeye-server -addr :8080
//	deepeye-server -addr :8080 -models models.json   # serve trained models
//	deepeye-server -addr :8080 -timeout 10s -max-inflight 64 -pprof
//
// Endpoints (CSV with a header row as the request body):
//
//	POST /topk?k=5        → top-k charts as JSON (data + Vega-Lite specs)
//	POST /query?q=QUERY   → run one visualization-language query
//	POST /multi?k=5       → multi-series suggestions
//	POST /search?q=WORDS  → keyword-driven top-k
//	POST /nlq?q=QUESTION  → natural-language question, ranked interpretations
//	                        with parse confidence and ambiguity explanations
//	GET  /healthz         → liveness
//	GET  /metrics         → Prometheus text metrics (requests, in-flight,
//	                        request + pipeline-stage latency histograms)
//
// Live datasets (enabled with -registry-size > 0; see -dataset-ttl):
//
//	POST   /datasets?name=trips      → register the body CSV as a live dataset
//	POST   /datasets/{id}/rows       → append headerless CSV rows (?header=1 skips one)
//	GET    /datasets                 → list live datasets (most recently used first)
//	GET    /datasets/{id}            → dataset info with live column profile
//	GET    /datasets/{id}/topk?k=5   → top-k on the current snapshot
//	GET    /datasets/{id}/search?q=… → keyword top-k on the current snapshot
//	GET    /datasets/{id}/query?q=…  → one query on the current snapshot
//	POST   /datasets/{id}/nlq?q=…    → natural-language question on the snapshot
//	DELETE /datasets/{id}            → drop the dataset and its cache entries
//
// Cluster mode (-peers with -self, registry required): the node joins a
// member ring, each dataset's leader is the consistent-hash owner of its
// name, misdirected writes forward to the leader, WAL commits replicate
// to followers over /cluster/replicate, and dataset reads accept a
// ?min_epoch= token for read-your-writes on any replica.
//
// Every request runs under -timeout (expired requests answer 504 and the
// selection pipeline stops immediately via context cancellation), at most
// -max-inflight requests are served concurrently (excess answers 503),
// and SIGINT/SIGTERM drain in-flight requests before exiting. Results
// and per-column statistics are cached by upload content fingerprint
// within the -cache-size byte budget (concurrent identical requests
// coalesce onto one computation); pass -cache-size 0 to disable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/cluster"
	"github.com/deepeye/deepeye/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelsPath  = flag.String("models", "", "trained models file (from SaveModels); optional")
		useRecog    = flag.Bool("recognizer", false, "filter candidates with the trained recognizer")
		hybridRank  = flag.Bool("hybrid", false, "rank with the trained hybrid method")
		ascii       = flag.Bool("ascii", false, "include ASCII renderings in responses")
		maxBody     = flag.Int64("max-body", 16<<20, "max upload size in bytes")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request pipeline deadline (0 = none)")
		maxInFlight = flag.Int("max-inflight", 128, "max concurrently served requests (0 = unlimited)")
		cacheSize   = flag.Int64("cache-size", 256<<20, "result/statistics cache byte budget (0 = disabled)")
		regSize     = flag.Int64("registry-size", 256<<20, "live dataset registry byte budget (0 = registry disabled)")
		datasetTTL  = flag.Duration("dataset-ttl", 30*time.Minute, "evict live datasets idle longer than this (0 = never)")
		dataDir     = flag.String("data-dir", "", "durability directory for the live registry: every mutation is journaled (WAL) and replayed on restart (empty = in-memory only)")
		walCompact  = flag.Int64("wal-compact-bytes", 64<<20, "compact the WAL into a snapshot when it outgrows this many bytes (negative = never)")
		walNoSync   = flag.Bool("wal-no-sync", false, "skip the per-mutation fsync (throughput over durability)")
		maxRows     = flag.Int("max-rows", 0, "max data rows per CSV ingest; violations answer 413 (0 = unlimited)")
		maxCell     = flag.Int("max-cell-bytes", 0, "max bytes in one CSV cell on ingest; violations answer 413 (0 = unlimited)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		grace       = flag.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")
		peers       = flag.String("peers", "", "comma-separated peer base URLs (e.g. http://10.0.0.2:8080); enables cluster mode (needs -self and -registry-size > 0)")
		self        = flag.String("self", "", "this node's advertised base URL in cluster mode (must be reachable by every peer)")
		heartbeat   = flag.Duration("heartbeat-interval", time.Second, "cluster peer heartbeat interval driving the failure detector (0 = disabled)")
		antiEntropy = flag.Duration("anti-entropy-interval", 10*time.Second, "jittered interval between anti-entropy repair passes (0 = disabled)")
		shipQueue   = flag.Int64("ship-queue-bytes", 32<<20, "per-peer replication queue byte cap; overflow collapses into snapshot resyncs (negative = unbounded)")
		// Per-request parallelism defaults to serial: the server already
		// runs many requests concurrently (-max-inflight), so fanning each
		// one out to every core helps tail latency only when the box has
		// idle cores. Results are identical either way.
		workers = flag.Int("workers", 1, "per-request selection-pipeline worker count: 0 and 1 run inline, n > 1 uses at most n goroutines per stage, negative = GOMAXPROCS")
	)
	flag.Parse()

	opts := deepeye.Options{
		IncludeOneColumn: true, UseRecognizer: *useRecog, CacheSize: *cacheSize,
		Workers: *workers, RegistrySize: *regSize, DatasetTTL: *datasetTTL,
		DataDir: *dataDir, WALCompactBytes: *walCompact, WALNoSync: *walNoSync,
	}
	if *hybridRank {
		opts.Method = deepeye.MethodHybrid
	}
	sys, err := deepeye.Open(opts)
	if err != nil {
		log.Fatalf("opening system: %v", err)
	}
	defer sys.Close()
	if *dataDir != "" {
		rec := sys.Recovery()
		log.Printf("recovered %s: %d snapshot datasets, %d journal records replayed, truncated=%v",
			*dataDir, rec.SnapshotDatasets, rec.ReplayedRecords, rec.Truncated)
		for _, name := range rec.DroppedDatasets {
			log.Printf("dropped dataset %q: recovered content failed fingerprint verification", name)
		}
	}
	if *modelsPath != "" {
		if err := sys.LoadModelsFile(*modelsPath); err != nil {
			log.Fatalf("loading models: %v", err)
		}
		log.Printf("loaded models from %s", *modelsPath)
	} else if *useRecog || *hybridRank {
		log.Fatal("-recognizer/-hybrid need -models")
	}

	// Cluster mode: this process joins a member ring, leads the
	// datasets consistent-hashing to it, ships its WAL commits to the
	// peers, and follows theirs.
	var node *cluster.Node
	if *peers != "" {
		if *self == "" {
			log.Fatal("-peers needs -self (this node's advertised base URL)")
		}
		reg := sys.RegistryHandle()
		if reg == nil {
			log.Fatal("-peers needs a live registry (-registry-size > 0)")
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimSuffix(p, "/"))
			}
		}
		node, err = cluster.New(cluster.Config{
			Self:                strings.TrimSuffix(*self, "/"),
			Peers:               peerList,
			Registry:            reg,
			HeartbeatInterval:   *heartbeat,
			AntiEntropyInterval: *antiEntropy,
			ShipQueueBytes:      *shipQueue,
		})
		if err != nil {
			log.Fatalf("joining cluster: %v", err)
		}
		defer node.Close()
		if err := node.SyncAll(); err != nil {
			log.Printf("initial catch-up incomplete (continuing; replication heals): %v", err)
		}
		log.Printf("cluster mode: self=%s members=%v", node.Self(), node.Members())
	}

	h := server.New(sys, server.Options{
		MaxBodyBytes: *maxBody,
		ASCII:        *ascii,
		Timeout:      *timeout,
		MaxInFlight:  *maxInFlight,
		MaxRows:      *maxRows,
		MaxCellBytes: *maxCell,
		Cluster:      node,
	})
	var handler http.Handler = h
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		handler = mux
		log.Printf("pprof enabled under /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then drain
	// in-flight requests for up to -grace before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("deepeye-server listening on %s\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("signal received, draining for up to %v", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("bye")
	}
}
