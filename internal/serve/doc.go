// Package serve is the production HTTP front-end of the WALRUS engine:
// a stdlib-only net/http service over a *walrus.DB backend, at any
// shard count, with the behaviors a network edge needs beyond routing.
//
//   - Admission control: a fixed pool of request slots fronted by a
//     bounded wait queue. When every slot is busy and the queue is full,
//     requests are shed immediately with 429 and a Retry-After hint
//     instead of piling onto the worker pool; queue depth, waits and
//     sheds are exported in the walrus_serve_* metrics namespace.
//   - Deadlines: every admitted request carries a context deadline that
//     propagates into the staged query pipeline (probe and score tasks
//     check it), so an expired request stops consuming workers.
//   - Writes: an ingest request is one AddBatch, run under a write
//     mutex that makes the process one writer. An exact duplicate
//     prescreen under the same mutex refuses a request whole (409) when
//     any id is already stored or repeats within it, so a request
//     commits all of its items or none, publishing one catalog version
//     per shard it touches.
//   - Graceful drain: Drain stops accepting work, waits for in-flight
//     requests (queries finish against their pinned snapshots), then
//     flushes and closes the backend under the write mutex. A write is
//     acknowledged only after its AddBatch commits, so an acknowledged
//     write is never lost across a drain.
//
// Endpoints:
//
//	POST   /v1/images            PPM body (?id=...) or JSON batch
//	POST   /v1/search            PPM body; ?id= queries an indexed image
//	GET    /v1/search            ?id= only
//	DELETE /v1/images/{id}       remove an image
//	GET    /v1/stats             backend + serving statistics
//	GET    /healthz              liveness (always 200 while the process runs)
//	GET    /readyz               readiness (503 once draining)
//	GET    /metrics, /debug/...  the internal/obs mux, when a registry is set
package serve

// The serving layer is instrumented, so its wall-clock reads route
// through the annotated obs clock helpers like every other instrumented
// package.
//
//walrus:lint-scope obs
