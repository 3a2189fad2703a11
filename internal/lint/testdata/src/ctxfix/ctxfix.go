// Fixture for the ctxflow analyzer: request-path code must forward a
// received context, consult it in exported entry points, and check it
// inside worker-pool fan-outs.
//
//walrus:lint-scope ctxflow
package ctxfix

import (
	"context"

	"walrus/internal/parallel"
)

// Forward is clean: the received ctx reaches every task.
func Forward(ctx context.Context, items []int) error {
	return parallel.ForErr(len(items), 4, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		items[i]++
		return nil
	})
}

// Detach consults its ctx but then manufactures a fresh one (rule 1).
func Detach(ctx context.Context) context.Context {
	if ctx.Err() != nil {
		return ctx
	}
	return context.Background() // want `context.Background\(\) discards the caller's deadline: forward "ctx" instead`
}

// Todo is the same leak through context.TODO (rule 1).
func Todo(ctx context.Context) error {
	_ = ctx
	return DoCtx(context.TODO()) // want `context.TODO\(\) discards the caller's deadline: forward "ctx" instead`
}

// Wrapper has no ctx in scope, so Background is the documented idiom
// for context-free convenience entry points.
func Wrapper() error {
	return DoCtx(context.Background())
}

// DoCtx consults its ctx: clean.
func DoCtx(ctx context.Context) error {
	return ctx.Err()
}

// Ignores advertises deadline support it does not deliver (rule 2).
func Ignores(ctx context.Context, n int) int { // want `exported Ignores takes a context that is never consulted; check ctx.Err\(\) or forward it down the pipeline`
	return n * 2
}

// Blank discards the ctx outright (rule 2).
func Blank(_ context.Context, n int) int { // want `exported Blank discards its context parameter \(_\); name it and consult ctx.Err\(\) or forward it`
	return n
}

// ignores is unexported: rule 2 only polices exported entry points.
func ignores(ctx context.Context, n int) int {
	return n
}

// FanOutNoCheck consults its ctx at the top but the submitted closure
// never does, so an expired deadline cannot stop the fan-out (rule 3).
func FanOutNoCheck(ctx context.Context, items []int) {
	if ctx.Err() != nil {
		return
	}
	parallel.For(len(items), 4, func(i int) { // want `parallel fan-out closure never consults "ctx": check ctx.Err\(\) per task so an expired deadline stops the fan-out`
		items[i]++
	})
}

// Snapshot mimics the root pipeline type: its fan-out methods must take
// a context at all (rule 4).
type Snapshot struct{ vals []int }

func (s *Snapshot) scoreAll() {
	parallel.For(len(s.vals), 4, func(i int) { // want `Snapshot\.scoreAll fans out over the worker pool but takes no context; thread the request ctx through the stage`
		s.vals[i]++
	})
}

func (s *Snapshot) scoreCtx(ctx context.Context) {
	parallel.For(len(s.vals), 4, func(i int) {
		if ctx.Err() != nil {
			return
		}
		s.vals[i] *= 2
	})
}

// shardSnapshot mimics the per-shard view the root pipeline's stages run
// on: held to rule 4 like Snapshot.
type shardSnapshot struct{ vals []int }

func (s *shardSnapshot) refineAll() {
	parallel.For(len(s.vals), 4, func(i int) { // want `shardSnapshot\.refineAll fans out over the worker pool but takes no context; thread the request ctx through the stage`
		s.vals[i]++
	})
}

var _ = ignores
