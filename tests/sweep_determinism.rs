//! Sequential-vs-parallel determinism: the sweep runner's headline
//! guarantee, enforced end to end.
//!
//! The parallel runner must be a pure scheduling change: running a sweep
//! with `jobs = 1` and `jobs = N` has to produce **byte-identical**
//! serialized reports and telemetry exports, because every simulation is a
//! closed deterministic system keyed only by its config (seeds included)
//! and results are merged back in spec order. These tests are what lets
//! `repro_all --jobs N` claim bit-for-bit equality with `--jobs 1`.

use std::time::{Duration, Instant};

use bench::golden::small_kv;
use bench::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, run_kv_experiment_with_telemetry, KvExperimentConfig};
use dcache::ArchKind;

/// A small randomized sweep: every paper architecture at a mix of read
/// ratios, value sizes and workload seeds.
fn mini_sweep() -> Vec<KvExperimentConfig> {
    let cells: [(f64, u64, u64); 3] = [
        (0.50, 1 << 10, 42),
        (0.95, 1 << 10, 7),
        (0.95, 64 << 10, 1234),
    ];
    let mut specs = Vec::new();
    for &(read_ratio, value_bytes, seed) in &cells {
        for &arch in &ArchKind::PAPER {
            let mut cfg = small_kv(arch, read_ratio, value_bytes);
            cfg.workload.seed = seed;
            specs.push(cfg);
        }
    }
    specs
}

#[test]
fn parallel_sweep_reports_are_byte_identical_to_sequential() {
    let specs = mini_sweep();
    let seq =
        SweepRunner::sequential().run_map(&specs, |_, cfg| run_kv_experiment(cfg).expect("run"));
    let par = SweepRunner::new(4).run_map(&specs, |_, cfg| run_kv_experiment(cfg).expect("run"));

    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        // `Debug` covers every field of the report (tiers, cost breakdowns,
        // latency percentiles, fault counters), so byte-equal debug strings
        // are byte-equal serialized reports.
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "spec {i} ({}): parallel run diverged from sequential",
            specs[i].deployment.arch.label()
        );
    }
}

#[test]
fn parallel_sweep_telemetry_exports_are_byte_identical() {
    // Telemetry is the part most tempted to share global state; assert the
    // per-experiment registries, trace logs and CPU profiles all come back
    // bit-for-bit equal under parallel execution.
    let mut specs: Vec<KvExperimentConfig> = [ArchKind::Remote, ArchKind::Linked]
        .iter()
        .map(|&arch| small_kv(arch, 0.95, 1 << 10))
        .collect();
    for cfg in &mut specs {
        cfg.trace_sample_every = Some(97);
    }

    let run = |cfg: &KvExperimentConfig| {
        let (report, bundle) = run_kv_experiment_with_telemetry(cfg).expect("run");
        (
            format!("{report:?}"),
            bundle.registry.to_prometheus_text(),
            bundle.traces_jsonl,
            bundle.profile.to_collapsed(),
        )
    };
    let seq = SweepRunner::sequential().run_map(&specs, |_, cfg| run(cfg));
    let par = SweepRunner::new(4).run_map(&specs, |_, cfg| run(cfg));

    for ((s_rep, s_prom, s_traces, s_prof), (p_rep, p_prom, p_traces, p_prof)) in
        seq.iter().zip(&par)
    {
        assert_eq!(s_rep, p_rep, "report diverged");
        assert_eq!(s_prom, p_prom, "prometheus export diverged");
        assert_eq!(s_traces, p_traces, "trace jsonl diverged");
        assert_eq!(s_prof, p_prof, "collapsed profile diverged");
    }

    // Post-hoc merge is order-insensitive: merging the two registries'
    // exports must not depend on which finished first.
    let mut ab = telemetry::Registry::new();
    let mut ba = telemetry::Registry::new();
    let bundles: Vec<_> = specs
        .iter()
        .map(|cfg| run_kv_experiment_with_telemetry(cfg).expect("run").1)
        .collect();
    ab.merge(&bundles[0].registry);
    ab.merge(&bundles[1].registry);
    ba.merge(&bundles[1].registry);
    ba.merge(&bundles[0].registry);
    assert_eq!(ab.to_prometheus_text(), ba.to_prometheus_text());
}

#[test]
fn parallel_batching_sweep_is_byte_identical_to_sequential() {
    // The batching ablation carries extra per-run state (coalescing
    // windows, the frame-size histogram) that must stay inside each
    // experiment; a jobs=1 and a jobs=4 sweep over the same specs must
    // serialize to the same bytes, report batch counters included.
    use bench::batching::{run_sweep, sweep_specs};
    let specs = sweep_specs();
    let seq = run_sweep(&SweepRunner::sequential(), &specs, 500, 1_000);
    let par = run_sweep(&SweepRunner::new(4), &specs, 500, 1_000);

    assert_eq!(seq.len(), par.len());
    let mut coalesced_cells = 0;
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "batching spec {i} (max_batch {}): parallel diverged",
            specs[i].max_batch
        );
        if s.mean_batch_size > 1.0 {
            coalesced_cells += 1;
        }
    }
    // The sweep must actually exercise coalescing, not just the baseline.
    assert!(
        coalesced_cells > 0,
        "no cell coalesced; the determinism check would be vacuous"
    );
}

#[test]
fn parallel_hotkey_sweep_is_byte_identical_to_sequential() {
    // The hot-key ablation layers the in-process L0 tier (TinyLFU sketch
    // state, per-server LRU, version invalidation, staleness histograms)
    // onto the serve path. All of that state must stay inside each
    // experiment: jobs=1 and jobs=4 over the same specs must serialize to
    // the same bytes, L0 counters and age percentiles included.
    use bench::hotkey::{run_sweep, sweep_specs};
    let specs = sweep_specs();
    let seq = run_sweep(&SweepRunner::sequential(), &specs, 500, 1_000);
    let par = run_sweep(&SweepRunner::new(4), &specs, 500, 1_000);

    assert_eq!(seq.len(), par.len());
    let mut absorbing_cells = 0;
    let mut stale_cells = 0;
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "hotkey spec {i} ({}): parallel diverged",
            specs[i].label()
        );
        if s.l0_hits > 0 {
            absorbing_cells += 1;
        }
        if s.l0_stale_serves > 0 {
            stale_cells += 1;
        }
    }
    // The sweep must actually exercise the tier and both consistency
    // modes, not just the off baselines.
    assert!(
        absorbing_cells > 0,
        "no cell hit the L0; the determinism check would be vacuous"
    );
    assert!(
        stale_cells > 0,
        "no serve-stale cell served stale; the staleness path went untested"
    );
}

#[test]
fn parallel_elastic_sweep_is_byte_identical_to_sequential() {
    // The elastic ablation adds the most run-local state yet: a SHARDS
    // profiler, planner hysteresis, live resizes and ring drains with
    // migration, plus diurnal clock stretching and load-window tracking.
    // All of it must stay inside each experiment: jobs=1 and jobs=4 over
    // the same specs must serialize to the same bytes, elastic counters
    // and billing adjustments included.
    use bench::elastic::{run_sweep, sweep_specs};
    let specs = sweep_specs();
    let seq = run_sweep(&SweepRunner::sequential(), &specs, 6_000, 6_000);
    let par = run_sweep(&SweepRunner::new(4), &specs, 6_000, 6_000);

    assert_eq!(seq.len(), par.len());
    let mut resized_cells = 0;
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "elastic spec {i} ({}): parallel diverged",
            specs[i].label()
        );
        if s.elastic_resizes > 0 {
            resized_cells += 1;
        }
    }
    // The sweep must actually exercise the controller, not just baselines.
    assert!(
        resized_cells > 0,
        "no cell resized; the determinism check would be vacuous"
    );
}

#[test]
fn parallel_ttl_sweep_is_byte_identical_to_sequential() {
    // The TTL ablation threads yet more run-local state through each
    // experiment: per-tenant age histograms and TTL controllers, tenant
    // pickers, churn/storm schedule evaluation, expiry sweeps with their
    // CPU charges, and resident-byte billing. jobs=1 and jobs=4 over the
    // same specs must serialize to the same bytes, per-tenant reports and
    // TTL counters included.
    use bench::ttl::{run_sweep, sweep_specs};
    let specs = sweep_specs();
    let seq = run_sweep(&SweepRunner::sequential(), &specs, 6_000, 6_000);
    let par = run_sweep(&SweepRunner::new(4), &specs, 6_000, 6_000);

    assert_eq!(seq.len(), par.len());
    let mut adopting_cells = 0;
    let mut expiring_cells = 0;
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "ttl spec {i} ({}): parallel diverged",
            specs[i].label()
        );
        if s.ttl_changes > 0 {
            adopting_cells += 1;
        }
        if s.expired_entries > 0 {
            expiring_cells += 1;
        }
    }
    // The sweep must actually exercise the plane, not just baselines.
    assert!(
        adopting_cells > 0,
        "no cell adopted a TTL; the determinism check would be vacuous"
    );
    assert!(
        expiring_cells > 0,
        "no cell expired entries; the sweep path went untested"
    );
}

#[test]
fn four_workers_give_at_least_2x_speedup() {
    // Scheduling-only check with uniform synthetic jobs, so it holds even
    // on a loaded CI box: 8 sleeps of 50 ms are ≥400 ms sequentially and
    // ≤~100 ms across 4 workers. Requiring only 2× leaves wide margin.
    let specs = [50u64; 8];
    let work = |_: usize, ms: &u64| std::thread::sleep(Duration::from_millis(*ms));

    let t0 = Instant::now();
    SweepRunner::sequential().run_map(&specs, work);
    let sequential = t0.elapsed();

    let t1 = Instant::now();
    SweepRunner::new(4).run_map(&specs, work);
    let parallel = t1.elapsed();

    assert!(
        parallel * 2 <= sequential,
        "expected >=2x speedup with 4 workers: sequential {sequential:?}, parallel {parallel:?}"
    );
}

#[test]
fn sharded_single_experiment_merges_byte_identically_across_jobs() {
    // PR-8's giant-run sharding: one experiment split per app server, each
    // shard replaying the full request stream and serving only its
    // partition. The shard *count* is fixed by the config (never by the
    // worker count), so jobs=1 and jobs=N execute the same shard set and
    // the deterministic merge must be byte-identical.
    //
    // The merged values themselves are pinned too: the FNV-1a digest of
    // each merged report's `Debug` text, per paper architecture, without and
    // with a prewarm pass (which serves only each shard's own keys).
    use dcache::experiment::{merge_kv_shards, run_kv_shard};

    const PINNED: [(bool, [u64; 4]); 2] = [
        (
            false,
            [
                0x7bdd_9017_b9e9_392a,
                0x3aba_0e35_d54e_62b8,
                0xdbe9_c64e_0463_c27c,
                0x41ad_4b7d_01f2_aea5,
            ],
        ),
        (
            true,
            [
                0x76f6_a2c1_a66e_3a62,
                0x65f3_ec42_12c5_469a,
                0x771b_2fa5_ef40_cb3d,
                0xd9c1_d9b6_8f92_615c,
            ],
        ),
    ];
    let mut moved = Vec::new();
    for &(prewarm, digests) in &PINNED {
        for (&arch, &want) in ArchKind::PAPER.iter().zip(&digests) {
            let mut cfg = small_kv(arch, 0.9, 1 << 10);
            cfg.prewarm = prewarm;
            let shards = cfg.deployment.app_servers;
            let shard_ids: Vec<usize> = (0..shards).collect();

            let seq = SweepRunner::sequential().run_map(&shard_ids, |_, &s| {
                run_kv_shard(&cfg, s, shards).expect("shard")
            });
            let par = SweepRunner::new(4).run_map(&shard_ids, |_, &s| {
                run_kv_shard(&cfg, s, shards).expect("shard")
            });

            let merged_seq = format!("{:?}", merge_kv_shards(&cfg, seq).expect("merge seq"));
            let merged_par = format!("{:?}", merge_kv_shards(&cfg, par).expect("merge par"));
            assert_eq!(
                merged_seq,
                merged_par,
                "{}: sharded merge diverged between jobs=1 and jobs=4",
                arch.label()
            );
            let got = fnv1a(&merged_seq);
            if got != want {
                moved.push(format!(
                    "{} prewarm={prewarm}: digest {got:#018x}, pinned {want:#018x}",
                    arch.label()
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "sharded merges moved:\n{}",
        moved.join("\n")
    );
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
