// walrus-serve serves a WALRUS database over HTTP with the production
// front-end of internal/serve: admission control with bounded queueing,
// per-request deadlines, one atomic commit per ingest request, and
// graceful drain on SIGTERM/SIGINT.
//
// Point it at a database directory of any shard count, or run it with
// -mem to serve a synthetic in-memory dataset:
//
//	walrus-serve -db /data/walrus -addr :8080
//	walrus-serve -mem -per-category 25 -addr :8080
//
// Metrics: pass -obs-addr to serve the observability mux on a side
// listener; when set, /metrics and /debug/... are also mounted on the
// serving address itself.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/obscli"
	"walrus/internal/serve"
)

func main() {
	log.SetFlags(0)
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dir          = flag.String("db", "", "database directory (any shard count)")
		mem          = flag.Bool("mem", false, "serve an in-memory database preloaded with the synthetic dataset")
		perCat       = flag.Int("per-category", 10, "with -mem: dataset images per category")
		concurrency  = flag.Int("concurrency", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission wait-queue bound before 429 (0 = 4x concurrency)")
		timeout      = flag.Duration("timeout", 0, "per-request deadline (0 = 30s, negative = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests during graceful drain")
		cacheSz      = flag.Int("cache-size", 0, "result cache capacity in queries (0 disables)")
		obsFlags     = obscli.Register()
		logFlags     = obscli.RegisterLog()
	)
	flag.Parse()

	if (*dir == "") == !*mem {
		log.Fatal("walrus-serve: exactly one of -db or -mem is required")
	}

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	reg, obsStop, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer obsStop()

	var backend *walrus.DB
	if *mem {
		opts := dataset.DefaultOptions()
		opts.PerCategory = *perCat
		ds, err := dataset.Generate(opts)
		if err != nil {
			log.Fatal(err)
		}
		db, err := walrus.New(walrus.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		items := make([]walrus.BatchItem, len(ds.Items))
		for i, it := range ds.Items {
			items[i] = walrus.BatchItem{ID: it.ID, Image: it.Image}
		}
		log.Printf("indexing %d synthetic images...", len(items))
		if err := db.AddBatch(items, 0); err != nil {
			log.Fatal(err)
		}
		backend = db
	} else {
		backend, err = walrus.Open(*dir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("opened %d-shard database at %s (%d images)", backend.Shards(), *dir, backend.Len())
	}
	if reg != nil {
		backend.SetMetrics(reg)
	}
	if *cacheSz > 0 {
		backend.SetCacheSize(*cacheSz)
	}
	defaults := walrus.DefaultQueryParams()

	srv, err := serve.New(serve.Config{
		Backend:              backend,
		DefaultParams:        defaults,
		MaxConcurrentQueries: *concurrency,
		QueueLimit:           *queue,
		RequestTimeout:       *timeout,
		Metrics:              reg,
		Log:                  logger,
		SlowQueryThreshold:   logFlags.SlowQueryThreshold(),
	})
	if err != nil {
		log.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		sig := <-sigs
		log.Printf("received %s, draining (up to %s)...", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done <- srv.Drain(ctx)
	}()

	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	// ListenAndServe returned nil: a drain is in progress; wait for it.
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}
