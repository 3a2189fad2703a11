// Webservice: a small HTTP image-search service over a WALRUS database,
// now a thin wrapper over the production front-end in internal/serve —
// the example only assembles a dataset and delegates routing, admission
// control, atomic ingest commits and graceful shutdown to the serve package.
//
//	GET  /v1/stats                  — database + serving statistics (JSON)
//	GET  /v1/search?id=<id>&k=5     — query by an indexed image's id
//	POST /v1/search?k=5             — query by a PPM image in the request body
//	POST /v1/images?id=<id>         — index a PPM image from the request body
//	GET  /healthz, /readyz          — liveness and readiness
//
// Run with:
//
//	go run ./examples/webservice            # serve on :8080
//	go run ./examples/webservice -selftest  # start, exercise endpoints, exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"walrus"
	"walrus/internal/dataset"
	"walrus/internal/serve"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	perCat := flag.Int("per-category", 10, "dataset images per category")
	selftest := flag.Bool("selftest", false, "start, run a few requests against the server, and exit")
	flag.Parse()

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
	log.Printf("indexing %d images...", len(items))
	if err := db.AddBatch(items, 0); err != nil {
		log.Fatal(err)
	}

	params := walrus.DefaultQueryParams()
	params.Limit = 5
	srv, err := serve.New(serve.Config{
		Backend:       db,
		DefaultParams: params,
		// Warnings and errors only: no per-request access records.
		Log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		log.Fatal(err)
	}

	if *selftest {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- srv.Serve(ln)
		}()
		base := "http://" + ln.Addr().String()
		for _, url := range []string{
			base + "/v1/stats",
			base + "/v1/search?id=flowers-0000&k=5",
			base + "/healthz",
		} {
			resp, err := http.Get(url)
			if err != nil {
				log.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				log.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("GET %s -> %s\n%s\n", url, resp.Status, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Fatal(err)
		}
		if err := <-serveErr; err != nil {
			log.Fatal(err)
		}
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		<-sigs
		log.Print("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Drain(ctx)
	}()

	log.Printf("serving on %s (try /v1/stats or /v1/search?id=flowers-0000)", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}
