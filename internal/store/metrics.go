package store

import "walrus/internal/obs"

// The storage layer publishes its activity into an obs.Registry through
// pre-resolved metric handles. The zero value of each metrics struct holds
// only nil handles, whose operations are no-ops, so the instrumentation
// sites run unconditionally: with observability off the cost is one nil
// check per counter touch and no wall-clock reads (spans and latency
// histograms are gated on reg != nil).

// poolMetrics are one BufferPool's obs handles.
type poolMetrics struct {
	hits, misses, evictions, flushes, failedWriteBacks *obs.Counter
	reg                                                *obs.Registry // nil when observability is off; gates spans
}

// SetMetrics publishes the pool's counters into reg under the
// walrus_bufpool_* namespace; nil detaches.
func (bp *BufferPool) SetMetrics(reg *obs.Registry) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if reg == nil {
		bp.om = poolMetrics{}
		return
	}
	bp.om = poolMetrics{
		reg:              reg,
		hits:             reg.Counter("walrus_bufpool_hits_total", "Buffer pool page lookups served from memory."),
		misses:           reg.Counter("walrus_bufpool_misses_total", "Buffer pool page lookups that read the pager."),
		evictions:        reg.Counter("walrus_bufpool_evictions_total", "Frames evicted from the buffer pool."),
		flushes:          reg.Counter("walrus_bufpool_flushes_total", "Dirty frames written back to the pager."),
		failedWriteBacks: reg.Counter("walrus_bufpool_failed_writebacks_total", "Dirty write-backs that errored during eviction."),
	}
}

// pagerMetrics are one Pager's obs handles.
type pagerMetrics struct {
	reads, writes, syncs      *obs.Counter
	readSeconds, writeSeconds *obs.Histogram
	reg                       *obs.Registry // nil when observability is off; gates clock reads and spans
}

// SetMetrics publishes the pager's counters and latency histograms into
// reg under the walrus_pager_* namespace; nil detaches.
func (p *Pager) SetMetrics(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reg == nil {
		p.om = pagerMetrics{}
		return
	}
	p.om = pagerMetrics{
		reg:          reg,
		reads:        reg.Counter("walrus_pager_reads_total", "Pages read from the page file."),
		writes:       reg.Counter("walrus_pager_writes_total", "Physical page writes, including meta and file extension."),
		syncs:        reg.Counter("walrus_pager_syncs_total", "Page file fsyncs."),
		readSeconds:  reg.Histogram("walrus_pager_read_seconds", "Page read latency.", nil),
		writeSeconds: reg.Histogram("walrus_pager_write_seconds", "Physical page write latency.", nil),
	}
}

// heapMetrics are one HeapFile's obs handles.
type heapMetrics struct {
	inserts, deletes *obs.Counter
}

// SetMetrics publishes the heap file's counters into reg under the
// walrus_heap_* namespace; nil detaches.
func (h *HeapFile) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		h.om = heapMetrics{}
		return
	}
	h.om = heapMetrics{
		inserts: reg.Counter("walrus_heap_inserts_total", "Records inserted into the region heap."),
		deletes: reg.Counter("walrus_heap_deletes_total", "Records deleted from the region heap."),
	}
}
