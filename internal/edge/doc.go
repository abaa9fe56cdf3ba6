// Package edge emulates an edge-cache tier in front of the origin
// cluster: each Cache is an httpx server holding a bounded byte-budget
// store of content pages, serving plain single-range videoplayback GETs
// from cached pages and filling misses from an upstream origin replica
// over an emulated backhaul link. It is the middle layer of the
// YouTube-style delivery hierarchy the fleet scenarios model — client
// access links in front, the sharded origin behind — and a new
// experiment axis (cache policy x crowd shape x link mix) for the
// deterministic QoE reports.
//
// # Ownership of cached pages
//
// A cached page buffer is allocated once by the fill that brought it
// in and is immutable from that point on. The store only ever drops
// references at eviction — buffers are never recycled, pooled, or
// written again — so a view handed out by (*Cache).PageView remains
// valid for as long as the holder keeps it, even across evictions (the
// garbage collector keeps borrowed views alive). Handlers therefore
// write page views straight through the httpx WriteStable zero-copy
// path: the bytes are stable by construction. PageView is registered
// as a borrow producer with detlint's borrowck, which flags callers
// that retain a view beyond the call (struct fields, containers,
// spawned closures) — serve it or copy it, never store it.
//
// # Determinism invariants
//
// The store's observable state — resident set, eviction order, and the
// hit/miss/fill/evict/byte counters — is a pure function of the
// scenario seed. No goroutine interleaving is left to decide it: every
// edge connection is an httpx connection machine whose handler takes
// each page in a continuation (httpx.After) at the instant a blocking
// write loop would have asked for it, and every backhaul fill is an
// httpx.EventTransport request on its own loop, all stepped by clock
// callbacks in (deadline, seq) order. The invariants below make the
// books independent of same-instant request order as well:
//
//   - Recency and frequency are keyed to virtual time, never to a
//     wall-clock or arrival-order counter. Same-instant touches
//     commute: they set the same lastUse and add to the use count.
//   - Eviction victims are picked by a total order — LRU compares
//     (lastUse, videoID, itag, page), LFU compares (uses, videoID,
//     itag, page) — so ties broken by (videoID, page) order, never by
//     map iteration or insertion order. The victim scan walks a slice
//     of resident pages, not a map.
//   - Budget accounting charges every resident page one full PageSize
//     (tail pages included), so same-instant concurrent inserts fold
//     to the same resident set in any wall order: each insert adds its
//     page then evicts global minima until the store fits, and with
//     uniform page cost that greedy fold is order-independent.
//   - A request is a hit only when the page's fill landed at a
//     strictly earlier virtual instant. A request at the instant of a
//     fill completion counts as a miss whichever side of it it runs on
//     (it either joins the flight or sees a page whose fill instant
//     equals now), and in neither case does it touch recency/frequency
//     — so the counters and the eviction state cannot depend on
//     same-instant order.
//   - Single-flight waiters park a wake callback on the flight — a
//     FIFO list, opener first — and are resumed in park order, each on
//     its own connection's loop, when the fill completes. They take the
//     filled bytes from the flight record, not a store re-lookup, so a
//     same-instant eviction by an unrelated insert cannot change what a
//     waiter observes.
//   - The backhaul link is clean (no jitter, no loss), so the
//     per-interface dial sequence perturbs nothing observable, and
//     per-connection shaping makes a fill's duration a function of its
//     start instant and size alone.
package edge
