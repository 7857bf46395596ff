//! The admission scan's link-capacity branch: a start whose pinned nodes
//! have room but whose only substrate link does not. On a 1×2 grid the
//! virtual link 0 → 1 can only use substrate link 0 → 1, so a reservation
//! holding that link blocks every overlapping candidate while both nodes
//! stay nearly empty. Such a start passes the scan's node check, so it
//! costs an LP, and the LP rejects it: a decision's `nodes` counts it.

use tvnep_core::{Fate, ServiceCore, ServiceOptions};
use tvnep_graph::{grid, star, NodeId, StarDirection};
use tvnep_model::tol::VERIFY_TOL;
use tvnep_model::{verify_with_tol, NodeMapping, Request, Substrate};

/// Nodes of capacity 10 (ample), links of capacity 1: two concurrent
/// requests, each sending 0.6 over link 0 → 1, do not fit.
fn core() -> ServiceCore {
    let substrate = Substrate::uniform(grid(1, 2), 10.0, 1.0);
    ServiceCore::new(substrate, 20.0, ServiceOptions::default())
}

fn link_heavy(name: &str, es: f64, le: f64, d: f64) -> (Request, NodeMapping) {
    let g = star(1, StarDirection::AwayFromCenter);
    (
        Request::new(name, g, vec![0.5, 0.5], vec![0.6], es, le, d),
        vec![NodeId(0), NodeId(1)],
    )
}

#[test]
fn flexible_candidate_moves_to_the_end_of_the_link_reservation() {
    let mut c = core();
    let (a, ma) = link_heavy("a", 0.0, 1.3, 1.3);
    let da = c.admit(a, ma).unwrap();
    assert!(da.accepted);
    assert_eq!(da.start, 0.0);
    let held_until = c.reservations()[0].end;

    // Its release fits every node but not the link: the scan's LP rejects
    // it, and a second LP takes the end of 'a' exactly.
    let (b, mb) = link_heavy("b", 0.0, 6.0, 2.0);
    let db = c.admit(b, mb).unwrap();
    assert!(db.accepted);
    assert_eq!(db.start, held_until);
    assert_eq!(db.end, held_until + 2.0);
    assert_eq!(db.nodes, 2, "both starts pass the node check");
    let Some(Fate::Accepted { event_point, .. }) = db.explain.map(|e| e.fate) else {
        panic!("accepted narrative expected");
    };
    assert!(event_point.contains("'a'"), "{event_point}");

    let (inst, sol) = c.reservation_snapshot();
    assert!(verify_with_tol(&inst, &sol, VERIFY_TOL).is_empty());
}

#[test]
fn rigid_twin_is_refused_by_link_capacity_alone() {
    let mut c = core();
    let (a, ma) = link_heavy("a", 0.0, 1.3, 1.3);
    assert!(c.admit(a, ma).unwrap().accepted);

    let (twin, mt) = link_heavy("twin", 0.0, 2.0, 2.0);
    let d = c.admit(twin, mt).unwrap();
    assert!(!d.accepted);
    assert_eq!(d.start, 0.0, "rejected at its release");
    assert_eq!(d.nodes, 1, "its one start reaches the LP, which rejects it");
    assert_eq!(c.reservations().len(), 1);
    match d.explain.map(|e| e.fate) {
        Some(Fate::Rejected { blockers, note }) => {
            assert!(blockers.is_empty(), "no node runs out: {blockers:?}");
            let note = note.expect("an unblocked start carries a note");
            assert!(note.contains("link capacity"), "{note}");
        }
        other => panic!("expected a rejection narrative, got {other:?}"),
    }
}
