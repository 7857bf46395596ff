//! Flight-recorder integration: the branch-and-bound drivers feed the
//! black-box ring buffers, the final-state registers reconstruct the
//! incumbent/bound, and the deterministic projection is byte-identical
//! across reruns of the same single-threaded solve.

use tvnep_mip::{solve_with, MipModel, MipOptions, MipStatus};
use tvnep_telemetry::{render_raw, FlightRecorder};

/// A knapsack hard enough to open a few dozen nodes (hundreds of events).
fn busy_knapsack() -> MipModel {
    let mut state = 0xbb07u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut m = MipModel::maximize();
    let mut row = Vec::new();
    for _ in 0..22 {
        let v = m.add_binary(40.0 + 30.0 * rng());
        row.push((v, 5.0 + 6.0 * rng()));
    }
    let cap = row.iter().map(|(_, w)| w).sum::<f64>() * 0.45;
    m.add_le(&row, cap);
    m
}

fn recorded_solve(threads: usize) -> (std::sync::Arc<FlightRecorder>, tvnep_mip::MipResult) {
    let rec = FlightRecorder::new(256);
    let opts = MipOptions {
        threads,
        blackbox: Some(rec.handle(0)),
        ..MipOptions::default()
    };
    let r = solve_with(&busy_knapsack(), &opts);
    (rec, r)
}

#[test]
fn sequential_dump_reconstructs_final_state_with_full_rings() {
    let (rec, r) = recorded_solve(1);
    assert_eq!(r.status, MipStatus::Optimal);
    // The registers reconstruct the incumbent and bound of the finished
    // solve exactly (user sense, same values the result reports).
    let obj = r.objective.expect("optimal solve has an objective");
    assert_eq!(rec.incumbent(), Some(obj));
    assert_eq!(rec.bound(), Some(r.best_bound));
    // The driver ring carries a full post-mortem window: at least 64
    // events survive in the ring (the acceptance floor for dumps).
    let dump = rec.dump("test", "Clean", "sequential solve");
    let workers = dump.get("workers").and_then(|w| w.as_array()).unwrap();
    let driver = &workers[0];
    let kept = driver
        .get("events")
        .and_then(|e| e.as_array())
        .unwrap()
        .len();
    assert!(kept >= 64, "driver ring kept only {kept} events");
    // The pulse agrees with the result's node count.
    let (lp_iters, nodes, _) = rec.pulse().ticks();
    assert_eq!(nodes, r.nodes);
    assert!(lp_iters > 0);
}

#[test]
fn deterministic_dump_is_byte_identical_across_reruns_at_one_thread() {
    let (rec_a, ra) = recorded_solve(1);
    let (rec_b, rb) = recorded_solve(1);
    assert_eq!(ra.objective, rb.objective);
    let a = render_raw(&rec_a.dump("test", "Clean", "rerun"));
    let b = render_raw(&rec_b.dump("test", "Clean", "rerun"));
    assert_eq!(a, b, "deterministic projections diverged across reruns");
    // Sanity: the projection really carries the history, not just headers.
    assert!(a.contains("node_open") && a.contains("lp_solve"));
}

#[test]
fn parallel_solve_populates_per_worker_rings() {
    let (rec, r) = recorded_solve(2);
    assert_eq!(r.status, MipStatus::Optimal);
    // Final registers are set at the driver's finish even in parallel mode.
    assert_eq!(rec.incumbent(), r.objective);
    assert_eq!(rec.bound(), Some(r.best_bound));
    let dump = rec.dump("test", "Clean", "parallel solve");
    let workers = dump.get("workers").and_then(|w| w.as_array()).unwrap();
    // tid 0 (driver handle, unused by workers) plus one ring per worker.
    let tids: Vec<u64> = workers
        .iter()
        .filter_map(|w| w.get("tid").and_then(|t| t.as_u64()))
        .collect();
    assert!(
        tids.contains(&1) && tids.contains(&2),
        "worker rings: {tids:?}"
    );
    let worker_events: u64 = workers
        .iter()
        .filter(|w| w.get("tid").and_then(|t| t.as_u64()) != Some(0))
        .filter_map(|w| w.get("recorded").and_then(|c| c.as_u64()))
        .sum();
    assert!(worker_events > 0, "no events recorded on worker rings");
    let (_, nodes, _) = rec.pulse().ticks();
    assert_eq!(nodes, r.nodes);
}

/// Every `bound` event carries the global dual bound clamped to the
/// incumbent, so none crosses the optimum: this model maximizes, and no
/// recorded bound lies below the final objective, at one thread or two.
/// The ring is large enough to keep every event, and the register ends on
/// the result's `best_bound`.
#[test]
fn bound_events_never_cross_the_optimum() {
    for threads in [1, 2] {
        let rec = FlightRecorder::new(1 << 14);
        let opts = MipOptions {
            threads,
            blackbox: Some(rec.handle(0)),
            ..MipOptions::default()
        };
        let r = solve_with(&busy_knapsack(), &opts);
        assert_eq!(r.status, MipStatus::Optimal);
        let obj = r.objective.expect("optimal solve has an objective");
        let floor = obj - 1e-9 * obj.abs();
        let dump = rec.dump("test", "Clean", "bound check");
        let mut bounds = 0;
        for ring in dump.get("workers").and_then(|w| w.as_array()).unwrap() {
            assert_eq!(ring.get("dropped").and_then(|d| d.as_u64()), Some(0));
            for e in ring.get("events").and_then(|e| e.as_array()).unwrap() {
                if e.get("kind").and_then(|k| k.as_str()) != Some("bound") {
                    continue;
                }
                let b = e.get("b").and_then(|b| b.as_f64()).unwrap();
                assert!(
                    b >= floor,
                    "threads={threads}: bound event {b} below the optimum {obj}"
                );
                bounds += 1;
            }
        }
        assert!(bounds > 0, "threads={threads}: no bound events recorded");
        assert_eq!(rec.bound(), Some(r.best_bound));
    }
}
