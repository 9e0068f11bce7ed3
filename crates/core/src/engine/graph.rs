//! The shared sparse candidate graph every solver borrows, and the
//! lazily sorted neighbour streams solvers read from it.
//!
//! A matched pair needs `sim > 0`, so the only pairs any algorithm ever
//! considers are the edges of the bipartite *candidate graph* over
//! events and users. [`CandidateGraph`] materializes that graph once per
//! instance as CSR adjacency, with every similarity stored once:
//!
//! - **rows** (`row_off`, `row_user: u32`, `row_sim: f64`): each event's
//!   candidates in user-id order — the natural order for dense scatters
//!   ([`CandidateGraph::scatter_row`]) and binary-search lookup;
//! - **columns** (`col_off`, `col_event: u32`, `col_pos: u32`): the
//!   transpose, each user's candidates in event-id order, where
//!   `col_pos` is the entry's flat index into the row arrays (so a
//!   column's similarity is `row_sim[col_pos[k]]`, not a second copy).
//!
//! That is 20 bytes per candidate plus the offsets
//! ([`GraphFlats::heap_bytes`]).
//!
//! The arrays live in an owned, `Arc`-shareable [`GraphFlats`]; a
//! [`CandidateGraph`] is a `(instance, flats)` pair. That split lets the
//! serving layer pin one epoch's graph immutably while mutations build
//! the next epoch's flats — and lets [`GraphFlats::extended`] produce
//! the next epoch *incrementally*.
//!
//! ## One-pass build
//!
//! Workers scan disjoint event ranges and evaluate each similarity
//! exactly once ([`Instance::similarity_row`]). A scan appends every
//! positive `(user, sim)` to fixed-size blocks of `BLOCK` entries and
//! counts each row and column on the way, so the offsets come free from
//! the single pass. The exact-size row arrays are then filled by copying
//! the blocks once in event order, freeing each block after its copy
//! (user ids first, then similarities, so the transient never holds more
//! than the final arrays will), and the columns are scattered through a
//! cursor array in event-id order, which leaves every column id-ascending
//! (tiled over event blocks and user ranges for cache locality).
//! No array grows by doubling, so the build's peak heap is the final
//! 20 bytes per candidate plus, per worker, one partly filled block and
//! its `|U|`-sized counters.
//!
//! Work is split by contiguous event ranges and concatenated in range
//! order, so the arrays are bit-identical at every thread count (the same
//! discipline as [`Instance::dense_similarity`], which this replaces on
//! the solver hot paths: the graph costs `O(P)` memory for `P` positive
//! pairs instead of `O(|V|·|U|)`). The worker budget is floored by
//! [`Threads::cost_capped`] on the dense cell count, so small instances
//! build inline instead of paying fork-join overhead.
//!
//! ## Lazy sorted streams
//!
//! Greedy-GEACC, Prune-GEACC's Algorithm 4 and ALNS repair read each
//! event's users (and each user's events) in *stream order*: similarity
//! descending, ties by id ascending — the paper's "j-th NN" oracle
//! order, and exactly what `NeighborOracle` yields. Greedy needs only a
//! capacity-bounded prefix of each stream, so nothing is sorted at build
//! time. A [`SortedStreams`] is per-solve state over borrowed flats: per
//! stream, the prefix sorted so far, copied out as `(id, sim)` arrays so
//! a cursor reads it sequentially. A read past the prefix extends it by
//! a chunk (`FIRST_CHUNK` entries, then ×`CHUNK_GROWTH` the prefix each
//! time) in one scan of the stream: the entries ranked after the
//! prefix's last one, and at or above a threshold sampled to pass about
//! twice the chunk, are collected as `(key, local index)` pairs, and the
//! chunk is selected (`select_nth_unstable`) and sorted among them. This
//! is the paper's incremental NN expansion over precomputed
//! similarities: reading `k` entries of a stream costs `O(log k)` scans
//! of it plus sorting `O(k)` entries.
//!
//! The order is still exactly the oracle's. Within a row (column) local
//! index order *is* user-id (event-id) order, and stored similarities
//! are positive and finite, so they order like their bit patterns:
//! `(u64::MAX − sim bits, local index)` compares exactly as (sim desc by
//! `total_cmp`, id asc). Indices are distinct, so the order is strict:
//! whatever the chunk sizes and thresholds, each chunk is the unique run
//! of entries that follows the prefix, and the prefix equals the one a
//! full sort — or the `NeighborOracle` — yields
//! (`crates/core/tests/graph_streams.rs` checks this element for element).
//!
//! The flats stay immutable — no interior mutability — so one `Arc` of
//! them is shared by concurrent solves and epochs, each owning its own
//! stream state.
//!
//! ## Incremental extension
//!
//! Dynamic sessions only ever *grow* the similarity space: `AddUser` /
//! `AddEvent` append ids, and no mutation rewrites an existing pair's
//! similarity (capacity and conflict edits live outside the sim model).
//! So an old row only gains users with larger ids and an old column only
//! gains events with larger ids: [`GraphFlats::extended`] copies every
//! old row and column and appends the new entries — no re-sorting, no
//! merging. Only `old_events × new_users` and `new_events × all_users`
//! pairs are evaluated, `O(|V₀|·Δu + Δv·|U₁|)` — proportional to drift,
//! not instance size — plus an `O(P)` copy of the surviving arrays.

use crate::model::ids::{EventId, UserId};
use crate::parallel::{split_ranges, Threads, SIM_CELLS_PER_WORKER};
use crate::Instance;
use std::ops::Range;
use std::sync::Arc;

/// Join a scoped worker, re-raising its panic payload verbatim (so a
/// worker panic reaches the budgeted pipeline's `catch_unwind` with its
/// original message).
fn join_propagating<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Entries per block of a build worker's transient row buffers: 256 KiB
/// of user ids plus 512 KiB of similarities.
const BLOCK: usize = 1 << 16;

/// The owned CSR arrays of one candidate graph: every `sim > 0`
/// `(event, user)` pair in id-ascending rows, and the column transpose
/// in event-id order. Instance-free and immutable once built, so one
/// epoch's flats can be shared across concurrent solves via `Arc` while
/// the next epoch is prepared.
#[derive(Debug, Clone)]
pub struct GraphFlats {
    /// `row_off[v]..row_off[v+1]` indexes event `v`'s entries.
    row_off: Vec<usize>,
    row_user: Vec<u32>,
    row_sim: Vec<f64>,
    /// `col_off[u]..col_off[u+1]` indexes user `u`'s entries.
    col_off: Vec<usize>,
    col_event: Vec<u32>,
    /// Each column entry's flat index into `row_user` / `row_sim`.
    col_pos: Vec<u32>,
}

/// CSR adjacency of all `sim > 0` (event, user) pairs, borrowed
/// immutably by every solver dispatched through the engine: the
/// instance (capacities, conflicts, attrs) plus an `Arc` of its flats.
#[derive(Debug, Clone)]
pub struct CandidateGraph<'a> {
    inst: &'a Instance,
    flats: Arc<GraphFlats>,
}

/// One build worker's output over a contiguous event range: each row's
/// positive count, its share of every column's count, and the rows'
/// entries in event order, chunked into blocks of exactly [`BLOCK`]
/// capacity (so no buffer ever reallocates).
struct RangeRows {
    row_counts: Vec<usize>,
    col_counts: Vec<usize>,
    users: Vec<Vec<u32>>,
    sims: Vec<Vec<f64>>,
}

impl RangeRows {
    /// Append one row's entries, filling the last block before starting
    /// a new one.
    fn append(&mut self, users: &[u32], sims: &[f64]) {
        let mut done = 0;
        while done < users.len() {
            if self.users.last().map_or(true, |b| b.len() == BLOCK) {
                self.users.push(Vec::with_capacity(BLOCK));
                self.sims.push(Vec::with_capacity(BLOCK));
            }
            let last = self.users.len() - 1;
            let n = (BLOCK - self.users[last].len()).min(users.len() - done);
            self.users[last].extend_from_slice(&users[done..done + n]);
            self.sims[last].extend_from_slice(&sims[done..done + n]);
            done += n;
        }
    }
}

/// Scan `events` (every user `0..nu`) once, keeping the positive pairs.
fn scan_range(inst: &Instance, events: Range<usize>, nu: usize) -> RangeRows {
    let mut out = RangeRows {
        row_counts: Vec::with_capacity(events.len()),
        col_counts: vec![0; nu],
        users: Vec::new(),
        sims: Vec::new(),
    };
    let mut dense = Vec::new();
    let (mut users, mut sims) = (vec![0u32; nu], vec![0.0f64; nu]);
    for v in events {
        inst.similarity_row(EventId(v as u32), &mut dense);
        // Branch-free compaction of the row's positive entries.
        let mut k = 0;
        for (u, &s) in dense.iter().enumerate() {
            users[k] = u as u32;
            sims[k] = s;
            let keep = usize::from(s > 0.0);
            out.col_counts[u] += keep;
            k += keep;
        }
        out.append(&users[..k], &sims[..k]);
        out.row_counts.push(k);
    }
    out
}

/// [`scan_range`] over `events` split across at most `threads` scoped
/// workers; the parts come back in event order.
fn scan_ranges(
    inst: &Instance,
    events: Range<usize>,
    nu: usize,
    threads: Threads,
) -> Vec<RangeRows> {
    let base = events.start;
    let ranges = split_ranges(events.len(), threads.get());
    if ranges.len() <= 1 {
        return vec![scan_range(inst, events, nu)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(s, e)| scope.spawn(move || scan_range(inst, base + s..base + e, nu)))
            .collect();
        handles.into_iter().map(join_propagating).collect()
    })
}

/// Append every block to `out` in order, dropping each one right after
/// its copy so the transient shrinks as the final array fills.
fn drain_blocks<T: Copy>(out: &mut Vec<T>, blocks: impl IntoIterator<Item = Vec<T>>) {
    for block in blocks {
        out.extend_from_slice(&block);
    }
}

/// Prefix-sum `n` per-row (per-column) counts into exact-size CSR
/// offsets.
fn offsets(n: usize, counts: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut off = Vec::with_capacity(n + 1);
    off.push(0usize);
    let mut total = 0;
    for c in counts {
        total += c;
        off.push(total);
    }
    debug_assert_eq!(off.len(), n + 1);
    off
}

/// Column positions are `u32` flat indices into the row arrays.
fn check_pair_count(pairs: usize) {
    assert!(
        u32::try_from(pairs).is_ok(),
        "{pairs} candidate pairs exceed the u32 column index"
    );
}

/// Events per block of the column scatter.
const SCATTER_EVENTS: usize = 32;

/// Users per tile of the column scatter: a block's writes into one tile
/// touch `SCATTER_EVENTS` consecutive slots of each of these columns,
/// which stay cache-resident together.
const SCATTER_USERS: usize = 2048;

/// Scatter row entries `first(v)..row_off[v + 1]` of every event into
/// the columns through `cursor` (each column's next free slot). Every
/// column receives its entries in event-id order — which keeps it
/// event-id ascending — but the work is tiled: events in blocks, and
/// within a block the rows are walked one user tile at a time, so the
/// writes stay within a cache-sized set of column slots instead of
/// striding across all `|U|` columns for every event.
fn scatter_columns(
    row_off: &[usize],
    row_user: &[u32],
    first: impl Fn(usize) -> usize,
    cursor: &mut [usize],
    col_event: &mut [u32],
    col_pos: &mut [u32],
) {
    let nv = row_off.len() - 1;
    let mut at = Vec::with_capacity(SCATTER_EVENTS);
    for v0 in (0..nv).step_by(SCATTER_EVENTS) {
        let events = v0..(v0 + SCATTER_EVENTS).min(nv);
        at.clear();
        at.extend(events.clone().map(&first));
        for tile_end in (1..=cursor.len().div_ceil(SCATTER_USERS)).map(|t| t * SCATTER_USERS) {
            for (v, i) in events.clone().zip(at.iter_mut()) {
                let end = row_off[v + 1];
                while *i < end && (row_user[*i] as usize) < tile_end {
                    let c = &mut cursor[row_user[*i] as usize];
                    col_event[*c] = v as u32;
                    col_pos[*c] = *i as u32;
                    *c += 1;
                    *i += 1;
                }
            }
        }
    }
}

impl GraphFlats {
    /// Build the flats from `inst` in one similarity pass (see the
    /// module docs), on at most `threads` scoped workers. The result is
    /// bit-identical at every thread count.
    pub fn build(inst: &Instance, threads: Threads) -> Self {
        let nv = inst.num_events();
        let nu = inst.num_users();
        let threads = threads.cost_capped(nv.saturating_mul(nu), SIM_CELLS_PER_WORKER);
        let mut parts = scan_ranges(inst, 0..nv, nu, threads);

        let row_off = offsets(nv, parts.iter().flat_map(|p| p.row_counts.iter().copied()));
        let pairs = row_off[nv];
        check_pair_count(pairs);
        let col_off = offsets(
            nu,
            (0..nu).map(|u| parts.iter().map(|p| p.col_counts[u]).sum()),
        );

        let mut row_user = Vec::with_capacity(pairs);
        drain_blocks(
            &mut row_user,
            parts.iter_mut().flat_map(|p| std::mem::take(&mut p.users)),
        );
        let mut row_sim = Vec::with_capacity(pairs);
        drain_blocks(
            &mut row_sim,
            parts.iter_mut().flat_map(|p| std::mem::take(&mut p.sims)),
        );
        drop(parts);

        let mut col_event = vec![0u32; pairs];
        let mut col_pos = vec![0u32; pairs];
        let mut cursor = col_off[..nu].to_vec();
        scatter_columns(
            &row_off,
            &row_user,
            |v| row_off[v],
            &mut cursor,
            &mut col_event,
            &mut col_pos,
        );

        GraphFlats {
            row_off,
            row_user,
            row_sim,
            col_off,
            col_event,
            col_pos,
        }
    }

    /// Extend these flats to the dimensions of `inst`, which must be a
    /// *grown* version of the instance these flats were built from:
    /// ids only ever appended, no existing pair's similarity changed —
    /// exactly the guarantee dynamic mutations provide (`AddUser` /
    /// `AddEvent` append; capacity and conflict edits don't touch the
    /// sim model). Bit-identical to `GraphFlats::build(inst, _)` at a
    /// fraction of the cost: only `old_events × new_users` and
    /// `new_events × all_users` pairs are evaluated, and every old row
    /// and column is copied with the new entries appended (see module
    /// docs).
    pub fn extended(&self, inst: &Instance, threads: Threads) -> Self {
        let nv0 = self.num_events();
        let nu0 = self.num_users();
        let nv1 = inst.num_events();
        let nu1 = inst.num_users();
        assert!(
            nv1 >= nv0 && nu1 >= nu0,
            "extended() requires a grown instance: ({nv0}×{nu0}) -> ({nv1}×{nu1})"
        );
        if nv1 == nv0 && nu1 == nu0 {
            return self.clone();
        }

        // Old rows' tails: users nu0..nu1, evaluated as point queries
        // (bit-identical to `similarity_row` cells), in id order.
        let mut tail_user: Vec<u32> = Vec::new();
        let mut tail_sim: Vec<f64> = Vec::new();
        let mut tail_counts = Vec::with_capacity(nv0);
        for v in 0..nv0 {
            let before = tail_user.len();
            for u in nu0..nu1 {
                let s = inst.similarity(EventId(v as u32), UserId(u as u32));
                if s > 0.0 {
                    tail_user.push(u as u32);
                    tail_sim.push(s);
                }
            }
            tail_counts.push(tail_user.len() - before);
        }
        let tail_off = offsets(nv0, tail_counts.iter().copied());

        // Brand-new rows nv0..nv1, scanned like a fresh build.
        let threads = threads.cost_capped(
            (nv1 - nv0).saturating_mul(nu1).max(nv0 * (nu1 - nu0)),
            SIM_CELLS_PER_WORKER,
        );
        let mut parts = scan_ranges(inst, nv0..nv1, nu1, threads);

        let old_len = |v: usize| self.row_off[v + 1] - self.row_off[v];
        let row_off = offsets(
            nv1,
            (0..nv0)
                .map(|v| old_len(v) + tail_counts[v])
                .chain(parts.iter().flat_map(|p| p.row_counts.iter().copied())),
        );
        let pairs = row_off[nv1];
        check_pair_count(pairs);

        // Rows: old row, then its tail (new ids exceed all old ids, so
        // concatenation stays id-ascending), then the new rows.
        let mut row_user = Vec::with_capacity(pairs);
        let mut row_sim = Vec::with_capacity(pairs);
        for v in 0..nv0 {
            let (a, b) = (self.row_off[v], self.row_off[v + 1]);
            let (ta, tb) = (tail_off[v], tail_off[v + 1]);
            row_user.extend_from_slice(&self.row_user[a..b]);
            row_user.extend_from_slice(&tail_user[ta..tb]);
            row_sim.extend_from_slice(&self.row_sim[a..b]);
            row_sim.extend_from_slice(&tail_sim[ta..tb]);
        }
        drain_blocks(
            &mut row_user,
            parts.iter_mut().flat_map(|p| std::mem::take(&mut p.users)),
        );
        drain_blocks(
            &mut row_sim,
            parts.iter_mut().flat_map(|p| std::mem::take(&mut p.sims)),
        );

        // Columns: every old column copied (row positions shifted by
        // the tails appended to earlier rows), then the new entries
        // appended in event-id order — old rows' tails land in the new
        // columns, new rows in every column, and both carry event ids
        // above every entry already there.
        let mut added = vec![0usize; nu1];
        for &u in &tail_user {
            added[u as usize] += 1;
        }
        for p in &parts {
            for (u, &c) in p.col_counts.iter().enumerate() {
                added[u] += c;
            }
        }
        drop(parts);
        let old_col_len = |u: usize| {
            if u < nu0 {
                self.col_off[u + 1] - self.col_off[u]
            } else {
                0
            }
        };
        let col_off = offsets(nu1, (0..nu1).map(|u| old_col_len(u) + added[u]));
        let mut col_event = vec![0u32; pairs];
        let mut col_pos = vec![0u32; pairs];
        let mut cursor = col_off[..nu1].to_vec();
        for (u, c) in cursor.iter_mut().enumerate().take(nu0) {
            for k in self.col_off[u]..self.col_off[u + 1] {
                let v = self.col_event[k] as usize;
                col_event[*c] = v as u32;
                col_pos[*c] = (self.col_pos[k] as usize - self.row_off[v] + row_off[v]) as u32;
                *c += 1;
            }
        }
        scatter_columns(
            &row_off,
            &row_user,
            |v| row_off[v] + if v < nv0 { old_len(v) } else { 0 },
            &mut cursor,
            &mut col_event,
            &mut col_pos,
        );

        GraphFlats {
            row_off,
            row_user,
            row_sim,
            col_off,
            col_event,
            col_pos,
        }
    }

    /// Number of events (rows).
    pub fn num_events(&self) -> usize {
        self.row_off.len() - 1
    }

    /// Number of users (columns).
    pub fn num_users(&self) -> usize {
        self.col_off.len() - 1
    }

    /// Number of `sim > 0` candidate pairs (edges).
    pub fn num_candidates(&self) -> usize {
        self.row_user.len()
    }

    /// Heap bytes held by the arrays (their capacities, offsets
    /// included): `20·P` for `P` candidates plus `8·(|V| + |U| + 2)`.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<usize>() * (self.row_off.capacity() + self.col_off.capacity())
            + size_of::<u32>()
                * (self.row_user.capacity() + self.col_event.capacity() + self.col_pos.capacity())
            + size_of::<f64>() * self.row_sim.capacity()
    }

    /// Whether these flats cover exactly the dimensions of `inst`.
    pub fn covers(&self, inst: &Instance) -> bool {
        self.num_events() == inst.num_events() && self.num_users() == inst.num_users()
    }

    /// `sim(v, u)` as stored: the model's value for positive pairs,
    /// `0.0` for absent ones. Similarities live in `[0, 1]`, so absent
    /// means `sim <= 0` and the stored value always equals the model's
    /// — the serving layer answers point queries from flats alone.
    pub fn similarity(&self, v: EventId, u: UserId) -> f64 {
        let (a, b) = (self.row_off[v.index()], self.row_off[v.index() + 1]);
        match self.row_user[a..b].binary_search(&u.0) {
            Ok(i) => self.row_sim[a + i],
            Err(_) => 0.0,
        }
    }

    /// Bit-exact equality of all six arrays (offsets and ids by value,
    /// sims by `to_bits`) — the test hook for incremental-vs-scratch
    /// pins.
    pub fn bit_eq(&self, other: &GraphFlats) -> bool {
        self.row_off == other.row_off
            && self.col_off == other.col_off
            && self.row_user == other.row_user
            && self.col_event == other.col_event
            && self.col_pos == other.col_pos
            && self.row_sim.len() == other.row_sim.len()
            && self
                .row_sim
                .iter()
                .zip(&other.row_sim)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl<'a> CandidateGraph<'a> {
    /// Build the graph from `inst` in one similarity pass (see the
    /// module docs), on at most `threads` scoped workers. The result is
    /// bit-identical at every thread count.
    pub fn build(inst: &'a Instance, threads: Threads) -> Self {
        CandidateGraph {
            inst,
            flats: Arc::new(GraphFlats::build(inst, threads)),
        }
    }

    /// Assemble a graph from an instance and previously built flats
    /// (an epoch snapshot). The flats' dimensions must match.
    pub fn from_flats(inst: &'a Instance, flats: Arc<GraphFlats>) -> Self {
        assert!(
            flats.covers(inst),
            "flats ({}×{}) do not cover the instance ({}×{})",
            flats.num_events(),
            flats.num_users(),
            inst.num_events(),
            inst.num_users()
        );
        CandidateGraph { inst, flats }
    }

    /// The shared flats backing this graph.
    pub fn flats(&self) -> &Arc<GraphFlats> {
        &self.flats
    }

    /// The instance this graph was built from.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Number of events (rows).
    pub fn num_events(&self) -> usize {
        self.flats.num_events()
    }

    /// Number of users (columns).
    pub fn num_users(&self) -> usize {
        self.flats.num_users()
    }

    /// Number of `sim > 0` candidate pairs (edges).
    pub fn num_candidates(&self) -> usize {
        self.flats.num_candidates()
    }

    /// Event `v`'s candidates, user ids ascending: `(users, sims)`.
    pub fn row(&self, v: EventId) -> (&[u32], &[f64]) {
        let f = &*self.flats;
        let (a, b) = (f.row_off[v.index()], f.row_off[v.index() + 1]);
        (&f.row_user[a..b], &f.row_sim[a..b])
    }

    /// Number of positive-similarity candidates of event `v`.
    pub fn event_degree(&self, v: EventId) -> usize {
        self.flats.row_off[v.index() + 1] - self.flats.row_off[v.index()]
    }

    /// Number of positive-similarity candidates of user `u`.
    pub fn user_degree(&self, u: UserId) -> usize {
        self.flats.col_off[u.index() + 1] - self.flats.col_off[u.index()]
    }

    /// `sim(v, u)` as stored in the graph: the `similarity_row` value
    /// for positive pairs, `0.0` for absent ones (binary search over the
    /// id-ascending row).
    pub fn similarity(&self, v: EventId, u: UserId) -> f64 {
        self.flats.similarity(v, u)
    }

    /// Fill `out` with event `v`'s dense similarity row (`|U|` entries,
    /// zeros scattered with the CSR values) — the bridge for solvers
    /// that need random access by user id without the `O(|V|·|U|)`
    /// dense-matrix build.
    pub fn scatter_row(&self, v: EventId, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.num_users(), 0.0);
        let (users, sims) = self.row(v);
        for (&u, &s) in users.iter().zip(sims.iter()) {
            out[u as usize] = s;
        }
    }
}

/// Entries materialized the first time a stream is read.
const FIRST_CHUNK: usize = 64;

/// Each later materialization grows a stream's prefix by this factor,
/// so reading `k` entries costs `O(log k)` scans of the stream.
const CHUNK_GROWTH: usize = 4;

/// Entries sampled to estimate a chunk's selection threshold.
const SAMPLE: usize = 64;

/// The stream-order key of a stored similarity: ascending keys are
/// descending similarities. Stored similarities are positive and
/// finite, and such doubles order like their bit patterns — the same
/// order `total_cmp` gives — so `(key, local index)` pairs compare
/// exactly as the stream order (sim desc, id asc) with plain integer
/// comparisons.
#[inline]
fn stream_key(sim: f64) -> u64 {
    u64::MAX - sim.to_bits()
}

/// One stream's sorted prefix, copied out of the flats in stream order
/// so cursors read it sequentially, plus the local index of its last
/// entry (the next chunk starts after it).
#[derive(Debug, Clone, Default)]
struct StreamPrefix {
    ids: Vec<u32>,
    sims: Vec<f64>,
    last_local: u32,
}

impl StreamPrefix {
    /// Extend the prefix to at least `want` entries (capped at the
    /// stream's length) of the stream whose similarities and ids, by
    /// local index, are `sims` and `id_of`; `cand` is reused scratch.
    ///
    /// One scan collects, as `(key, index)` pairs, the entries ranked
    /// after the prefix whose key is at most a sampled threshold (see
    /// [`sampled_threshold`]). If at least a chunk's worth passes, every
    /// entry of the chunk passes — each has a key at most the chunk's
    /// last key, which is at most the threshold — so the chunk is
    /// selected and sorted among the collected pairs; otherwise the
    /// scan is repeated without the threshold.
    fn extend_to(
        &mut self,
        want: usize,
        sims: &[f64],
        id_of: impl Fn(usize) -> u32,
        cand: &mut Vec<(u64, u32)>,
    ) {
        let len = sims.len();
        let have = self.ids.len();
        let target = want.max(have * CHUNK_GROWTH).max(FIRST_CHUNK).min(len);
        let take = target - have;
        let after = self.sims.last().map(|&s| (stream_key(s), self.last_local));
        let remains = |entry: &(u64, u32)| after.map_or(true, |a| *entry > a);
        let entries = || {
            sims.iter()
                .enumerate()
                .map(|(j, &s)| (stream_key(s), j as u32))
                .filter(remains)
        };

        cand.clear();
        if let Some(t) = sampled_threshold(sims, take, len - have, remains) {
            cand.extend(entries().filter(|e| e.0 <= t));
        }
        if cand.len() < take {
            cand.clear();
            cand.extend(entries());
        }
        if take < cand.len() {
            cand.select_nth_unstable(take);
        }
        let chunk = &mut cand[..take];
        chunk.sort_unstable();
        self.ids.reserve_exact(take);
        self.sims.reserve_exact(take);
        for &(_, j) in chunk.iter() {
            self.ids.push(id_of(j as usize));
            self.sims.push(sims[j as usize]);
        }
        self.last_local = chunk[take - 1].1;
    }
}

/// A key threshold that about `2·take` of the `remaining` entries of
/// the stream `sims` (those `remains` accepts) meet: the matching order
/// statistic of an evenly strided sample of them. `None` when the
/// remainder is too short to be worth narrowing, or the chunk is too
/// large a share of it.
fn sampled_threshold(
    sims: &[f64],
    take: usize,
    remaining: usize,
    remains: impl Fn(&(u64, u32)) -> bool,
) -> Option<u64> {
    if remaining < 4 * SAMPLE {
        return None;
    }
    let mut sample = [0u64; SAMPLE];
    let mut m = 0;
    for i in 0..SAMPLE {
        let j = i * sims.len() / SAMPLE;
        let entry = (stream_key(sims[j]), j as u32);
        if remains(&entry) {
            sample[m] = entry.0;
            m += 1;
        }
    }
    // The sample rank whose quantile keeps ~2·take of the remainder.
    let q = (2 * take * m).div_ceil(remaining) + 1;
    (q < m).then(|| *sample[..m].select_nth_unstable(q - 1).1)
}

/// Per-solve neighbour streams over a [`CandidateGraph`]: event `v`'s
/// users and user `u`'s events in stream order (similarity desc, ties
/// id asc), sorted lazily as they are read (see the module docs).
///
/// The state belongs to one solve (or one ALNS run across all its
/// iterations); the flats it reads stay shared and immutable.
#[derive(Debug, Clone)]
pub struct SortedStreams<'g> {
    flats: &'g GraphFlats,
    rows: Vec<StreamPrefix>,
    cols: Vec<StreamPrefix>,
    /// Selection scratch: candidate `(key, local index)` pairs.
    cand: Vec<(u64, u32)>,
    /// One column's similarities gathered by local index.
    col_sims: Vec<f64>,
}

impl<'g> SortedStreams<'g> {
    /// Fresh streams over `graph`: nothing is sorted yet.
    pub fn new(graph: &'g CandidateGraph<'_>) -> Self {
        let flats: &'g GraphFlats = graph.flats();
        SortedStreams {
            flats,
            rows: vec![StreamPrefix::default(); flats.num_events()],
            cols: vec![StreamPrefix::default(); flats.num_users()],
            cand: Vec::new(),
            col_sims: Vec::new(),
        }
    }

    /// Event `v`'s stream, sorted to at least `k` entries (or the whole
    /// stream if shorter).
    fn row(&mut self, v: EventId, k: usize) -> &StreamPrefix {
        let f = self.flats;
        let (a, b) = (f.row_off[v.index()], f.row_off[v.index() + 1]);
        let order = &mut self.rows[v.index()];
        if k > order.ids.len() && order.ids.len() < b - a {
            order.extend_to(k, &f.row_sim[a..b], |j| f.row_user[a + j], &mut self.cand);
        }
        order
    }

    /// User `u`'s stream, sorted to at least `k` entries (or the whole
    /// stream if shorter).
    fn col(&mut self, u: UserId, k: usize) -> &StreamPrefix {
        let f = self.flats;
        let (a, b) = (f.col_off[u.index()], f.col_off[u.index() + 1]);
        let order = &mut self.cols[u.index()];
        if k > order.ids.len() && order.ids.len() < b - a {
            self.col_sims.clear();
            self.col_sims
                .extend(f.col_pos[a..b].iter().map(|&i| f.row_sim[i as usize]));
            order.extend_to(k, &self.col_sims, |j| f.col_event[a + j], &mut self.cand);
        }
        order
    }

    /// Entry `k` of event `v`'s stream — its `k`-th most similar user
    /// (0-based) — or `None` past the stream's end.
    #[inline]
    pub fn row_entry(&mut self, v: EventId, k: usize) -> Option<(UserId, f64)> {
        let p = self.row(v, k + 1);
        Some((UserId(*p.ids.get(k)?), p.sims[k]))
    }

    /// Entry `k` of user `u`'s stream — their `k`-th most similar event
    /// (0-based) — or `None` past the stream's end.
    #[inline]
    pub fn col_entry(&mut self, u: UserId, k: usize) -> Option<(EventId, f64)> {
        let p = self.col(u, k + 1);
        Some((EventId(*p.ids.get(k)?), p.sims[k]))
    }

    /// The first `k` entries of event `v`'s stream (all of them if it
    /// is shorter), in stream order.
    pub fn row_prefix(
        &mut self,
        v: EventId,
        k: usize,
    ) -> impl ExactSizeIterator<Item = (UserId, f64)> + '_ {
        let p = self.row(v, k);
        let n = k.min(p.ids.len());
        p.ids[..n]
            .iter()
            .zip(&p.sims[..n])
            .map(|(&u, &s)| (UserId(u), s))
    }

    /// The first `k` entries of user `u`'s stream (all of them if it is
    /// shorter), in stream order.
    pub fn col_prefix(
        &mut self,
        u: UserId,
        k: usize,
    ) -> impl ExactSizeIterator<Item = (EventId, f64)> + '_ {
        let p = self.col(u, k);
        let n = k.min(p.ids.len());
        p.ids[..n]
            .iter()
            .zip(&p.sims[..n])
            .map(|(&v, &s)| (EventId(v), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    /// Streams as `(id, sim bits)` lists.
    type Drained = Vec<Vec<(u32, u64)>>;

    /// Every stream drained — rows, then columns.
    fn drained(g: &CandidateGraph) -> (Drained, Drained) {
        let mut streams = SortedStreams::new(g);
        let rows = (0..g.num_events() as u32)
            .map(|v| {
                std::iter::from_fn({
                    let mut k = 0;
                    let streams = &mut streams;
                    move || {
                        k += 1;
                        streams.row_entry(EventId(v), k - 1)
                    }
                })
                .map(|(u, s)| (u.0, s.to_bits()))
                .collect()
            })
            .collect();
        let cols = (0..g.num_users() as u32)
            .map(|u| {
                streams
                    .col_prefix(UserId(u), usize::MAX)
                    .map(|(v, s)| (v.0, s.to_bits()))
                    .collect()
            })
            .collect();
        (rows, cols)
    }

    /// `entries` sorted by (sim desc, id asc) — the reference order.
    fn fully_sorted(mut entries: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
        entries.sort_by(|a, b| {
            f64::from_bits(b.1)
                .total_cmp(&f64::from_bits(a.1))
                .then(a.0.cmp(&b.0))
        });
        entries
    }

    #[test]
    fn rows_match_similarity_row_filtered() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        let mut dense = Vec::new();
        for v in inst.events() {
            inst.similarity_row(v, &mut dense);
            let (users, sims) = g.row(v);
            let expected: Vec<(u32, f64)> = dense
                .iter()
                .enumerate()
                .filter(|(_, &s)| s > 0.0)
                .map(|(u, &s)| (u as u32, s))
                .collect();
            let actual: Vec<(u32, f64)> = users.iter().zip(sims).map(|(&u, &s)| (u, s)).collect();
            assert_eq!(actual, expected, "row {v}");
        }
    }

    #[test]
    fn columns_are_the_event_ordered_transpose() {
        let inst = banded_instance(9, 31);
        let g = CandidateGraph::build(&inst, Threads::single());
        let f = g.flats();
        for u in 0..inst.num_users() {
            let (a, b) = (f.col_off[u], f.col_off[u + 1]);
            let events = &f.col_event[a..b];
            assert!(events.windows(2).all(|w| w[0] < w[1]), "col {u}");
            for k in a..b {
                let (v, i) = (f.col_event[k] as usize, f.col_pos[k] as usize);
                assert!((f.row_off[v]..f.row_off[v + 1]).contains(&i));
                assert_eq!(f.row_user[i] as usize, u);
            }
            let expected: Vec<u32> = inst
                .events()
                .filter(|&v| g.similarity(v, UserId(u as u32)) > 0.0)
                .map(|v| v.0)
                .collect();
            assert_eq!(events, &expected[..], "col {u}");
        }
    }

    #[test]
    fn sorted_rows_are_similarity_desc_id_asc_permutations() {
        // Many tied similarities, rows long enough for several chunks.
        let inst = banded_instance(7, 700);
        let g = CandidateGraph::build(&inst, Threads::single());
        let (rows, _) = drained(&g);
        for v in inst.events() {
            let (users, sims) = g.row(v);
            let entries = users
                .iter()
                .zip(sims)
                .map(|(&u, s)| (u, s.to_bits()))
                .collect();
            assert_eq!(rows[v.index()], fully_sorted(entries), "row {v}");
        }
    }

    #[test]
    fn sorted_cols_mirror_sorted_rows() {
        let inst = banded_instance(7, 700);
        let g = CandidateGraph::build(&inst, Threads::single());
        let (_, cols) = drained(&g);
        for u in inst.users() {
            let entries = inst
                .events()
                .map(|v| (v.0, g.similarity(v, u)))
                .filter(|&(_, s)| s > 0.0)
                .map(|(v, s)| (v, s.to_bits()))
                .collect();
            assert_eq!(cols[u.index()], fully_sorted(entries), "col {u}");
        }
    }

    #[test]
    fn prefixes_and_entries_agree_in_any_request_order() {
        let inst = banded_instance(3, 2000);
        let g = CandidateGraph::build(&inst, Threads::single());
        let (rows, _) = drained(&g);
        let v = EventId(1);
        let mut streams = SortedStreams::new(&g);
        // Deep entry first, then a short prefix, then a longer one.
        let (u, s) = streams.row_entry(v, 700).unwrap();
        assert_eq!((u.0, s.to_bits()), rows[1][700]);
        let short: Vec<(u32, u64)> = streams
            .row_prefix(v, 5)
            .map(|(u, s)| (u.0, s.to_bits()))
            .collect();
        assert_eq!(short, rows[1][..5]);
        let long: Vec<(u32, u64)> = streams
            .row_prefix(v, 1500)
            .map(|(u, s)| (u.0, s.to_bits()))
            .collect();
        assert_eq!(long, rows[1][..1500]);
        assert_eq!(streams.row_entry(v, rows[1].len()), None);
        assert_eq!(streams.row_prefix(v, usize::MAX).len(), rows[1].len());
    }

    #[test]
    fn misjudged_sample_thresholds_fall_back_to_a_full_scan() {
        // The strided sample positions hold the best similarities and
        // every other entry is far below them, so the sampled threshold
        // passes fewer entries than the first chunk needs — in a row
        // (1024 users) and in a column (1024 events).
        let len = 1024;
        let sim = |j: usize| {
            if (0..SAMPLE).any(|i| i * len / SAMPLE == j) {
                0.9 - j as f64 * 1e-6
            } else {
                0.1 + (j % 7) as f64 * 1e-3
            }
        };
        let row: Vec<f64> = (0..len).map(sim).collect();
        let wide = Instance::from_matrix(
            SimMatrix::from_rows(std::slice::from_ref(&row)),
            vec![1],
            vec![1; len],
            ConflictGraph::empty(1),
        )
        .unwrap();
        let tall = Instance::from_matrix(
            SimMatrix::from_rows(&row.iter().map(|&s| vec![s]).collect::<Vec<_>>()),
            vec![1; len],
            vec![1],
            ConflictGraph::empty(len),
        )
        .unwrap();
        let expected = fully_sorted(
            row.iter()
                .enumerate()
                .map(|(j, s)| (j as u32, s.to_bits()))
                .collect(),
        );
        let g = CandidateGraph::build(&wide, Threads::single());
        assert_eq!(drained(&g).0[0], expected);
        let g = CandidateGraph::build(&tall, Threads::single());
        assert_eq!(drained(&g).1[0], expected);
    }

    /// A 40×120 instance is far below the [`SIM_CELLS_PER_WORKER`]
    /// grain, so exercise the worker paths through a synthetic instance
    /// big enough that `cost_capped` leaves multiple workers standing.
    fn banded_instance(nv: usize, nu: usize) -> Instance {
        let rows: Vec<Vec<f64>> = (0..nv)
            .map(|v| {
                (0..nu)
                    .map(|u| ((v * 13 + u * 7) % 23) as f64 / 23.0)
                    .collect()
            })
            .collect();
        Instance::from_matrix(
            SimMatrix::from_rows(&rows),
            vec![2; nv],
            vec![3; nu],
            ConflictGraph::empty(nv),
        )
        .unwrap()
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let inst = banded_instance(40, 120);
        let serial = GraphFlats::build(&inst, Threads::single());
        for t in [2, 4, 8] {
            let parallel = GraphFlats::build(&inst, Threads::new(t));
            assert!(serial.bit_eq(&parallel), "threads = {t}");
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_above_the_grain_floor() {
        // 64 × 8192 = 512k cells: 4 workers survive the cost cap, so the
        // spawned scan paths really run, each filling more than a block.
        let inst = banded_instance(64, 8192);
        const _: () = assert!(64 * 8192 >= 4 * SIM_CELLS_PER_WORKER);
        const _: () = assert!(64 * 8192 / 4 > BLOCK);
        let serial = GraphFlats::build(&inst, Threads::single());
        for t in [2, 4] {
            let parallel = GraphFlats::build(&inst, Threads::new(t));
            assert!(serial.bit_eq(&parallel), "threads = {t}");
        }
    }

    #[test]
    fn flats_hold_at_most_24_bytes_per_candidate() {
        let inst = banded_instance(64, 8192);
        let flats = GraphFlats::build(&inst, Threads::single());
        let per_candidate = flats.heap_bytes() as f64 / flats.num_candidates() as f64;
        assert!(per_candidate <= 24.0, "{per_candidate} B per candidate");
        // Exact-size arrays: 20 B per candidate plus the offsets.
        assert_eq!(
            flats.heap_bytes(),
            20 * flats.num_candidates() + 8 * (64 + 1 + 8192 + 1)
        );
    }

    #[test]
    fn empty_and_degenerate_instances_build() {
        // All-zero similarities: zero candidates, every offset flat.
        let m = SimMatrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2)).unwrap();
        for t in [1, 4] {
            let g = CandidateGraph::build(&inst, Threads::new(t));
            assert_eq!(g.num_candidates(), 0);
            assert_eq!(g.event_degree(EventId(0)), 0);
            assert_eq!(g.user_degree(UserId(1)), 0);
            let mut streams = SortedStreams::new(&g);
            assert_eq!(streams.row_entry(EventId(0), 0), None);
            assert_eq!(streams.col_entry(UserId(1), 0), None);
            assert_eq!(streams.row_prefix(EventId(1), 3).len(), 0);
        }
    }

    #[test]
    fn similarity_lookup_and_scatter_match_instance() {
        let inst = toy::table1_instance();
        let g = CandidateGraph::build(&inst, Threads::single());
        let mut dense = Vec::new();
        let mut scattered = Vec::new();
        for v in inst.events() {
            inst.similarity_row(v, &mut dense);
            g.scatter_row(v, &mut scattered);
            for u in inst.users() {
                let expected = if dense[u.index()] > 0.0 {
                    dense[u.index()]
                } else {
                    0.0
                };
                assert_eq!(g.similarity(v, u).to_bits(), expected.to_bits());
                assert_eq!(scattered[u.index()].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn degrees_count_positive_pairs() {
        let m = SimMatrix::from_rows(&[vec![0.5, 0.0, 0.2], vec![0.0, 0.0, 0.9]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1, 1], ConflictGraph::empty(2)).unwrap();
        let g = CandidateGraph::build(&inst, Threads::single());
        assert_eq!(g.num_candidates(), 3);
        assert_eq!(g.event_degree(EventId(0)), 2);
        assert_eq!(g.event_degree(EventId(1)), 1);
        assert_eq!(g.user_degree(UserId(0)), 1);
        assert_eq!(g.user_degree(UserId(2)), 2);
    }

    #[test]
    fn extended_matches_scratch_build_bit_for_bit() {
        // Grow 12×30 -> 17×41: old rows gain 11 users, 5 rows appear.
        // `banded_instance` sims depend only on `(v, u)`, so the smaller
        // instance is the "before growth" corner of the larger one.
        let old_inst = banded_instance(12, 30);
        let new_inst = banded_instance(17, 41);
        for t in [1, 4] {
            let threads = Threads::new(t);
            let old = GraphFlats::build(&old_inst, threads);
            let grown = old.extended(&new_inst, threads);
            let scratch = GraphFlats::build(&new_inst, Threads::single());
            assert!(grown.bit_eq(&scratch), "threads = {t}");
            assert_eq!(grown.heap_bytes(), scratch.heap_bytes());
        }
    }

    #[test]
    fn extended_users_only_and_events_only() {
        let old_inst = banded_instance(10, 20);
        let old = GraphFlats::build(&old_inst, Threads::single());
        let users_only = banded_instance(10, 27);
        assert!(old
            .extended(&users_only, Threads::single())
            .bit_eq(&GraphFlats::build(&users_only, Threads::single())));
        let events_only = banded_instance(14, 20);
        assert!(old
            .extended(&events_only, Threads::single())
            .bit_eq(&GraphFlats::build(&events_only, Threads::single())));
    }

    #[test]
    fn extended_with_equal_dims_is_a_clone() {
        let inst = banded_instance(6, 9);
        let flats = GraphFlats::build(&inst, Threads::single());
        assert!(flats.extended(&inst, Threads::single()).bit_eq(&flats));
    }
}
