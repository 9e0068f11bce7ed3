//! Differential suite for the candidate graph's lazy neighbour streams.
//!
//! [`SortedStreams`] sorts each row and column of the CSR graph lazily,
//! in growing chunks, as it is read. [`NeighborOracle`] computes the
//! same (similarity desc, id asc) streams independently, straight from
//! the instance's similarity model. Under random interleavings of
//! cursor steps, random-depth entry reads and random prefix requests
//! across all streams, every answer must equal the oracle's stream
//! element for element — ids, and similarities by `to_bits` — and so
//! must every stream drained to its end afterwards. Covered: graphs
//! built at 1 and 4 threads (including one instance large enough that
//! four build workers really run), matrix instances with many tied
//! similarities, Euclidean instances with ties and exact zeros, and
//! flats grown by `GraphFlats::extended`.

use geacc_core::algorithms::NeighborOracle;
use geacc_core::engine::{CandidateGraph, GraphFlats, SortedStreams};
use geacc_core::parallel::Threads;
use geacc_core::{ConflictGraph, EventId, Instance, SimMatrix, SimilarityModel, UserId};
use proptest::prelude::*;
use std::sync::Arc;

/// One stream entry as compared: `(id, sim bits)`.
type Entry = (u32, u64);

/// The oracle's streams, pulled on demand and remembered.
struct Reference<'a> {
    oracle: NeighborOracle<'a>,
    rows: Vec<Vec<Entry>>,
    cols: Vec<Vec<Entry>>,
    rows_done: Vec<bool>,
    cols_done: Vec<bool>,
}

impl<'a> Reference<'a> {
    fn new(inst: &'a Instance) -> Self {
        Reference {
            oracle: NeighborOracle::new(inst),
            rows: vec![Vec::new(); inst.num_events()],
            cols: vec![Vec::new(); inst.num_users()],
            rows_done: vec![false; inst.num_events()],
            cols_done: vec![false; inst.num_users()],
        }
    }

    /// The first `k` entries of event `v`'s oracle stream (fewer if it
    /// is shorter).
    fn row(&mut self, v: usize, k: usize) -> &[Entry] {
        while self.rows[v].len() < k && !self.rows_done[v] {
            match self.oracle.next_user_for_event(EventId(v as u32)) {
                Some((u, s)) => self.rows[v].push((u.0, s.to_bits())),
                None => self.rows_done[v] = true,
            }
        }
        &self.rows[v][..k.min(self.rows[v].len())]
    }

    /// The first `k` entries of user `u`'s oracle stream.
    fn col(&mut self, u: usize, k: usize) -> &[Entry] {
        while self.cols[u].len() < k && !self.cols_done[u] {
            match self.oracle.next_event_for_user(UserId(u as u32)) {
                Some((v, s)) => self.cols[u].push((v.0, s.to_bits())),
                None => self.cols_done[u] = true,
            }
        }
        &self.cols[u][..k.min(self.cols[u].len())]
    }
}

/// One request against a stream.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// Advance this stream's cursor by one (how greedy reads).
    Next,
    /// Read entry `k` directly.
    Entry(usize),
    /// Read the first `k` entries.
    Prefix(usize),
}

/// `(is_row, node selector, request)`; the selector is reduced modulo
/// the side's node count.
type Op = (bool, usize, Request);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Weighted 3 : 2 : 2 towards cursor steps.
    let request = (0u8..7, 0usize..80).prop_map(|(w, k)| match w {
        0..=2 => Request::Next,
        3 | 4 => Request::Entry(k),
        _ => Request::Prefix(k),
    });
    proptest::collection::vec((0u8..2, 0usize..1000, request), 0..120)
        .prop_map(|ops| ops.into_iter().map(|(r, n, q)| (r == 1, n, q)).collect())
}

/// Replay `ops` against `graph`'s streams and the oracle, then drain
/// every stream of both, asserting equality throughout.
fn check_streams(graph: &CandidateGraph, ops: &[Op]) -> Result<(), TestCaseError> {
    let inst = graph.instance();
    let (nv, nu) = (inst.num_events(), inst.num_users());
    let mut streams = SortedStreams::new(graph);
    let mut reference = Reference::new(inst);
    let mut row_cursor = vec![0usize; nv];
    let mut col_cursor = vec![0usize; nu];
    for &(is_row, node, request) in ops {
        if is_row {
            let v = node % nv;
            let ev = EventId(v as u32);
            match request {
                Request::Next | Request::Entry(_) => {
                    let k = match request {
                        Request::Entry(k) => k,
                        _ => row_cursor[v],
                    };
                    let got = streams.row_entry(ev, k).map(|(u, s)| (u.0, s.to_bits()));
                    let want = reference.row(v, k + 1).get(k).copied();
                    prop_assert_eq!(got, want, "row {} entry {}", v, k);
                    if matches!(request, Request::Next) && got.is_some() {
                        row_cursor[v] += 1;
                    }
                }
                Request::Prefix(k) => {
                    let got: Vec<Entry> = streams
                        .row_prefix(ev, k)
                        .map(|(u, s)| (u.0, s.to_bits()))
                        .collect();
                    prop_assert_eq!(&got[..], reference.row(v, k), "row {} prefix {}", v, k);
                }
            }
        } else {
            let u = node % nu;
            let us = UserId(u as u32);
            match request {
                Request::Next | Request::Entry(_) => {
                    let k = match request {
                        Request::Entry(k) => k,
                        _ => col_cursor[u],
                    };
                    let got = streams.col_entry(us, k).map(|(v, s)| (v.0, s.to_bits()));
                    let want = reference.col(u, k + 1).get(k).copied();
                    prop_assert_eq!(got, want, "col {} entry {}", u, k);
                    if matches!(request, Request::Next) && got.is_some() {
                        col_cursor[u] += 1;
                    }
                }
                Request::Prefix(k) => {
                    let got: Vec<Entry> = streams
                        .col_prefix(us, k)
                        .map(|(v, s)| (v.0, s.to_bits()))
                        .collect();
                    prop_assert_eq!(&got[..], reference.col(u, k), "col {} prefix {}", u, k);
                }
            }
        }
    }
    // Drain everything: rows by cursor from wherever they stand, columns
    // as one whole-stream prefix.
    for (v, &cursor) in row_cursor.iter().enumerate() {
        let mut k = cursor;
        while let Some((u, s)) = streams.row_entry(EventId(v as u32), k) {
            prop_assert_eq!(Some(&(u.0, s.to_bits())), reference.row(v, k + 1).get(k));
            k += 1;
        }
        prop_assert_eq!(k, reference.row(v, usize::MAX).len(), "row {} length", v);
    }
    for u in 0..nu {
        let got: Vec<Entry> = streams
            .col_prefix(UserId(u as u32), usize::MAX)
            .map(|(v, s)| (v.0, s.to_bits()))
            .collect();
        prop_assert_eq!(&got[..], reference.col(u, usize::MAX), "col {} drained", u);
    }
    Ok(())
}

/// Matrix instance whose similarities come mostly from a five-value
/// set (heavy ties, exact zeros), with an occasional free value.
fn tied_matrix(max_v: usize, max_u: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1..=max_v, 1..=max_u).prop_flat_map(|(nv, nu)| {
        // Six in seven from the tied set, else a free value.
        let sim = (0u8..7, 0u32..=4, 1u32..=1000).prop_map(|(w, tied, free)| {
            if w < 6 {
                tied as f64 / 4.0
            } else {
                free as f64 / 1000.0
            }
        });
        proptest::collection::vec(proptest::collection::vec(sim, nu), nv)
    })
}

fn matrix_instance(rows: &[Vec<f64>]) -> Instance {
    let nv = rows.len();
    Instance::from_matrix(
        SimMatrix::from_rows(rows),
        vec![1; nv],
        vec![1; rows[0].len()],
        ConflictGraph::empty(nv),
    )
    .expect("rows are rectangular")
}

/// Euclidean points on a coarse grid of `[0, 10]^dim`: duplicate points
/// tie, and opposite cube corners have similarity exactly 0.
#[derive(Debug, Clone)]
struct EuclidSpec {
    dim: usize,
    events: Vec<Vec<f64>>,
    users: Vec<Vec<f64>>,
}

impl EuclidSpec {
    /// The instance over the first `nv` events and `nu` users.
    fn instance(&self, nv: usize, nu: usize) -> Instance {
        let mut b = Instance::builder(self.dim, SimilarityModel::Euclidean { t: 10.0 });
        for e in &self.events[..nv] {
            b.event(e, 1);
        }
        for u in &self.users[..nu] {
            b.user(u, 1);
        }
        b.build().expect("grid points lie in the cube")
    }
}

fn euclid_spec(max_v: usize, max_u: usize) -> impl Strategy<Value = EuclidSpec> {
    (1usize..=3, 1..=max_v, 1..=max_u).prop_flat_map(|(dim, nv, nu)| {
        let point = proptest::collection::vec((0u32..=4).prop_map(|x| x as f64 * 2.5), dim);
        (
            proptest::collection::vec(point.clone(), nv),
            proptest::collection::vec(point, nu),
        )
            .prop_map(move |(events, users)| EuclidSpec { dim, events, users })
    })
}

/// The `nv × nu` top-left corner of a matrix.
fn corner(rows: &[Vec<f64>], nv: usize, nu: usize) -> Vec<Vec<f64>> {
    rows[..nv].iter().map(|r| r[..nu].to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_streams_match_the_oracle(rows in tied_matrix(8, 40), ops in ops()) {
        let inst = matrix_instance(&rows);
        for t in [1, 4] {
            check_streams(&CandidateGraph::build(&inst, Threads::new(t)), &ops)?;
        }
    }

    #[test]
    fn euclidean_streams_match_the_oracle(spec in euclid_spec(8, 40), ops in ops()) {
        let inst = spec.instance(spec.events.len(), spec.users.len());
        for t in [1, 4] {
            check_streams(&CandidateGraph::build(&inst, Threads::new(t)), &ops)?;
        }
    }

    /// Flats grown twice by `extended` (each step adding events, users
    /// or both) stream exactly like the grown instance's oracle.
    #[test]
    fn extended_matrix_streams_match_the_oracle(
        rows in tied_matrix(8, 40),
        cut in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        ops in ops(),
    ) {
        let (nv, nu) = (rows.len(), rows[0].len());
        let shrink = |n: usize, f: f64| ((n as f64 * f) as usize).clamp(1, n);
        let (nv0, nu0) = (shrink(nv, cut.0), shrink(nu, cut.1));
        let (nv1, nu1) = (shrink(nv, cut.2).max(nv0), shrink(nu, cut.3).max(nu0));
        let steps = [(nv0, nu0), (nv1, nu1), (nv, nu)];
        let instances: Vec<Instance> =
            steps.iter().map(|&(a, b)| matrix_instance(&corner(&rows, a, b))).collect();
        for t in [1, 4] {
            let threads = Threads::new(t);
            let mut flats = GraphFlats::build(&instances[0], threads);
            for inst in &instances[1..] {
                flats = flats.extended(inst, threads);
            }
            let graph = CandidateGraph::from_flats(&instances[2], Arc::new(flats));
            check_streams(&graph, &ops)?;
        }
    }

    #[test]
    fn extended_euclidean_streams_match_the_oracle(
        spec in euclid_spec(8, 40),
        cut in (0.0f64..=1.0, 0.0f64..=1.0),
        ops in ops(),
    ) {
        let (nv, nu) = (spec.events.len(), spec.users.len());
        let nv0 = ((nv as f64 * cut.0) as usize).clamp(1, nv);
        let nu0 = ((nu as f64 * cut.1) as usize).clamp(1, nu);
        let old = spec.instance(nv0, nu0);
        let new = spec.instance(nv, nu);
        for t in [1, 4] {
            let flats = GraphFlats::build(&old, Threads::new(t)).extended(&new, Threads::new(t));
            check_streams(&CandidateGraph::from_flats(&new, Arc::new(flats)), &ops)?;
        }
    }
}

/// 40 × 16 384 cells clear the build's per-worker grain four times
/// over, so at 4 threads four scan workers really run. Every stream,
/// read under a fixed interleaving of short and deep requests and then
/// drained, matches the oracle — and the 1- and 4-thread graphs agree.
#[test]
fn streams_match_the_oracle_above_the_parallel_grain() {
    let mut b = Instance::builder(2, SimilarityModel::Euclidean { t: 10.0 });
    for v in 0..40u32 {
        b.event(&[(v % 5) as f64 * 2.5, (v / 5 % 5) as f64 * 2.5], 1);
    }
    for u in 0..16_384u32 {
        b.user(&[(u % 9) as f64 * 1.25, (u * 7 % 17) as f64 * 0.625], 1);
    }
    let inst = b.build().expect("points lie in the cube");
    let ops: Vec<Op> = (0..200)
        .map(|i| {
            let request = match i % 4 {
                0 => Request::Next,
                1 => Request::Entry(i * 37 % 500),
                2 => Request::Prefix(i * 53 % 300),
                _ => Request::Next,
            };
            (i % 3 != 0, i * 7919, request)
        })
        .collect();
    let serial = CandidateGraph::build(&inst, Threads::single());
    let parallel = CandidateGraph::build(&inst, Threads::new(4));
    assert!(serial.flats().bit_eq(parallel.flats()));
    for graph in [&serial, &parallel] {
        check_streams(graph, &ops).unwrap();
    }
}
