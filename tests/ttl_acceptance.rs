//! The TTL-control-plane headline claims, enforced end to end.
//!
//! The `ablation_ttl` sweep is only worth shipping if it is non-vacuous:
//! the adaptive TTL plane must hold the MRC planner's hit ratio on the
//! diurnal day (the regime capacity resizing was built for), must win
//! dollars outright on at least one of the regimes MRC is blind to
//! (working-set churn, invalidation storms), and per-tenant controllers
//! must actually isolate a quiet tenant from a neighbor's storm. These
//! tests run the same cells as the bin and the golden suite, at golden
//! budget, through the parallel sweep runner.

use bench::sweep::SweepRunner;
use bench::ttl::{
    cell_dollars, experiment, isolation_experiment, run_sweep, tenant_hit, Plane, Schedule, TtlSpec,
};
use dcache::experiment::run_kv_experiment;
use dcache::ArchKind;

const WARMUP: u64 = 8_000;
const MEASURED: u64 = 12_000;

fn triplet(arch: ArchKind, schedule: Schedule) -> Vec<TtlSpec> {
    Plane::ALL
        .iter()
        .map(|&plane| TtlSpec {
            arch,
            schedule,
            plane,
        })
        .collect()
}

#[test]
fn ttl_plane_matches_mrc_hits_on_the_diurnal_day() {
    let specs = triplet(ArchKind::Remote, Schedule::Diurnal);
    let r = run_sweep(&SweepRunner::from_env(), &specs, WARMUP, MEASURED);
    let (mrc, ttl) = (&r[1], &r[2]);
    assert!(ttl.ttl_decisions > 0, "{ttl:?}");
    // One-sided: expiry must not cost more than 2 points against the
    // capacity planner (beating it, as resident-byte billing lets it run
    // the full configured cache, is fine).
    assert!(
        mrc.cache_hit_ratio - ttl.cache_hit_ratio <= 0.02,
        "TTL plane must stay within 2 points of the MRC planner: mrc {} vs ttl {}",
        mrc.cache_hit_ratio,
        ttl.cache_hit_ratio
    );
}

#[test]
fn ttl_plane_wins_dollars_under_churn_or_storms() {
    // The regimes the MRC planner is blind to: it sizes capacity off reuse
    // distances, so ghost entries from a rotated hot set (churn) or an
    // invalidation burst (storm) still occupy billed DRAM. Expiry reclaims
    // them. The TTL plane must be strictly cheaper than BOTH the static
    // fleet and the MRC plane on at least one of these cells.
    let mut wins = 0;
    for schedule in [Schedule::Churn, Schedule::Storm] {
        let specs = triplet(ArchKind::Remote, schedule);
        let r = run_sweep(&SweepRunner::from_env(), &specs, WARMUP, MEASURED);
        let statics = cell_dollars(Plane::Static, &r[0]);
        let mrc = cell_dollars(Plane::Mrc, &r[1]);
        let ttl = cell_dollars(Plane::Ttl, &r[2]);
        assert!(
            r[2].expired_entries > 0,
            "{}: nothing expired",
            schedule.label()
        );
        if ttl < mrc && ttl < statics {
            wins += 1;
        }
        println!(
            "{}: static ${statics:.2} mrc ${mrc:.2} ttl ${ttl:.2}",
            schedule.label()
        );
    }
    assert!(
        wins > 0,
        "TTL must beat static-peak AND MRC-elastic on at least one churn/storm cell"
    );
}

#[test]
fn per_tenant_ttl_isolates_a_neighbors_storm() {
    let quiet = run_kv_experiment(&isolation_experiment(false, WARMUP, MEASURED)).unwrap();
    let stormy = run_kv_experiment(&isolation_experiment(true, WARMUP, MEASURED)).unwrap();
    // The storm really happened to the aggressor...
    let agg_writes = |r: &dcache::ExperimentReport| {
        let t = r.tenants.iter().find(|t| t.label == "aggressor").unwrap();
        t.writes as f64 / t.requests as f64
    };
    assert!(
        agg_writes(&stormy) > agg_writes(&quiet) + 0.05,
        "storm write share {} vs quiet {}",
        agg_writes(&stormy),
        agg_writes(&quiet)
    );
    // ...and the victim barely noticed: the stated isolation bound.
    let moved = (tenant_hit(&stormy, "victim") - tenant_hit(&quiet, "victim")).abs();
    assert!(
        moved <= 0.02,
        "a neighbor's storm moved the victim's hit ratio by {moved} (> 0.02): quiet {} vs storm {}",
        tenant_hit(&quiet, "victim"),
        tenant_hit(&stormy, "victim")
    );
}

#[test]
fn ttl_cells_expose_the_control_loop_in_the_report() {
    let spec = TtlSpec {
        arch: ArchKind::Linked,
        schedule: Schedule::Churn,
        plane: Plane::Ttl,
    };
    let r = run_kv_experiment(&experiment(&spec, WARMUP, MEASURED)).unwrap();
    assert!(r.ttl_decisions > 0);
    assert!(r.ttl_changes > 0);
    assert!(r.expired_entries > 0);
    assert!(r.expiry_sweep_cpu_us > 0);
    assert!(r.ttl_mean_resident_bytes > 0.0);
    assert_eq!(r.tenants.len(), 1, "the sweep's single service tenant");
}
