//! One benchmark run: set-up, then whole rounds of the closed-loop change
//! stream, each closed by a checkpoint, the verification checks and a
//! crash recovery.
//!
//! A round is always the same operations: `batches_per_round`
//! `apply_batch` calls, one checkpoint (`save`), three checks per summary
//! (`exact`, `sum_bound`, `sum_exact`) and one recovery from the previous
//! round's checkpoint plus the full log. Runs differ only in how many
//! rounds fit in their time, so the share of failed operations is the same
//! in every run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use md_obs::ObsConfig;
use md_warehouse::{ChangeBatch, MaintStats, SchedulerStats, Warehouse, WarehouseBuilder};

use crate::layers::SpanTotals;
use crate::reference::{Expectation, Reference, Summary};
use crate::star::{Feed, Mix, Shape, Star};
use crate::stats::{beyond, median, quantile};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large uniform fact batches on two workers.
    BulkFeed,
    /// Tens of thousands of 32-change batches over Zipf-hot rows on two
    /// workers. Runnable, but not in `BENCHMARK.json`: its figures follow
    /// the host's thread wake-up delays (see the README).
    HotTrickle,
    /// Multi-table batches with dimension churn on one worker.
    DimChurn,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [Workload::BulkFeed, Workload::HotTrickle, Workload::DimChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkFeed => "bulk_feed",
            Workload::HotTrickle => "hot_trickle",
            Workload::DimChurn => "dim_churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run's structure depends on.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    shape: Shape,
    mix: Mix,
    workers: usize,
    batches_per_round: usize,
    /// Rounds run even when the time is up.
    min_rounds: usize,
    /// The percentile `batch_tail_ms` reports: at least ten samples lie
    /// beyond it in a run of `min_rounds` rounds.
    tail: f64,
    /// The round whose checkpoint gives `snapshot_mb` and `detail_ratio`,
    /// so both describe the same amount of change in every run.
    size_round: usize,
}

/// About 144,000 facts over half a year, three months of it in 1997.
const STAR: Shape = Shape {
    days: 180,
    stores: 16,
    products: 1_000,
    sold_per_day: 20,
    max_transactions: 4,
};

const SMOKE_STAR: Shape = Shape {
    days: 120,
    stores: 3,
    products: 40,
    sold_per_day: 5,
    max_transactions: 3,
};

impl Plan {
    /// The plan of `workload`; `smoke` shrinks it to a seconds-scale run
    /// that still exercises every operation.
    pub fn new(workload: Workload, smoke: bool) -> Plan {
        let mut plan = match workload {
            Workload::BulkFeed => Plan {
                shape: STAR,
                mix: Mix::Bulk { changes: 2_048 },
                workers: 2,
                batches_per_round: 12,
                min_rounds: 6,
                tail: 0.85,
                size_round: 4,
            },
            Workload::HotTrickle => Plan {
                shape: STAR,
                mix: Mix::Hot {
                    hot_rows: 2,
                    reprices: 12,
                    pairs: 3,
                    hot_set: 1_024,
                    zipf_s: 1.1,
                },
                workers: 2,
                batches_per_round: 6_000,
                min_rounds: 6,
                tail: 0.95,
                size_round: 4,
            },
            Workload::DimChurn => Plan {
                shape: STAR,
                mix: Mix::Dims {
                    fact_changes: 200,
                    max_clears: 8,
                    renames: 4,
                    manager_edits: 2,
                    new_days: 1,
                    new_products: 2,
                    dim_every: 4,
                },
                workers: 1,
                batches_per_round: 20,
                min_rounds: 6,
                tail: 0.90,
                size_round: 4,
            },
        };
        if smoke {
            plan.shape = SMOKE_STAR;
            plan.batches_per_round = plan.batches_per_round.min(8);
            plan.min_rounds = 3;
            plan.size_round = 2;
            plan.mix = match plan.mix {
                Mix::Bulk { .. } => Mix::Bulk { changes: 64 },
                Mix::Hot { .. } => Mix::Hot {
                    hot_rows: 2,
                    reprices: 12,
                    pairs: 3,
                    hot_set: 32,
                    zipf_s: 1.1,
                },
                dims => dims,
            };
        }
        plan
    }

    fn builder(&self) -> WarehouseBuilder {
        Warehouse::builder().workers(self.workers).wal(true)
    }
}

/// The options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the change stream runs (rounds in progress finish).
    pub seconds: f64,
    /// Traced run: report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Seconds-scale inputs for the benchmark's own tests.
    pub smoke: bool,
}

/// A run's result.
#[derive(Debug)]
pub struct Report {
    /// Every operation but the named `sum_exact` checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed operations by kind.
    pub failures: BTreeMap<&'static str, u64>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operation outcomes.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failures: BTreeMap<&'static str, u64>,
}

impl Ops {
    fn record(&mut self, kind: &'static str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            let n = self.failures.entry(kind).or_default();
            if *n == 0 || kind != "sum_exact" {
                eprintln!("{kind} failed: {e}");
            }
            *n += 1;
        }
    }
}

/// Set-up timings of one sample.
#[derive(Debug, Default)]
struct SetupSample {
    total: f64,
    parse: f64,
    derive: f64,
    load: BTreeMap<&'static str, f64>,
}

/// Builds a warehouse from nothing and registers the four views; in a
/// traced run also times parsing and derivation of each view on its own.
fn set_up(plan: &Plan, star_db: &md_relation::Database, trace: bool) -> (Warehouse, SetupSample) {
    let catalog = star_db.catalog();
    let mut sample = SetupSample::default();
    let mut own: BTreeMap<&'static str, f64> = BTreeMap::new();
    if trace {
        for s in Summary::ALL {
            let t = Instant::now();
            let view = md_sql::parse_view(s.sql(), catalog, s.name()).expect("paper view parses");
            let parse = t.elapsed().as_secs_f64();
            let t = Instant::now();
            md_core::derive(&view, catalog).expect("paper view derives");
            let derive = t.elapsed().as_secs_f64();
            sample.parse += parse;
            sample.derive += derive;
            own.insert(s.name(), parse + derive);
        }
    }
    let builder = if trace {
        plan.builder().observe(ObsConfig::full())
    } else {
        plan.builder()
    };
    let started = Instant::now();
    let mut wh = builder.build(catalog);
    for s in Summary::ALL {
        let t = Instant::now();
        wh.add_summary_sql(s.sql(), star_db)
            .unwrap_or_else(|e| panic!("registering {}: {e}", s.name()));
        let spent = t.elapsed().as_secs_f64() - own.get(s.name()).copied().unwrap_or(0.0);
        sample.load.insert(s.name(), spent);
    }
    sample.total = started.elapsed().as_secs_f64();
    (wh, sample)
}

/// The audit finding that a summary's `f64` sums differ bitwise from a
/// rebuild out of the auxiliary views. The rebuild folds in hash-map order,
/// so the finding comes and goes on correct state (the order-dependent
/// `SUM(Double)` fault); the recovery check ignores it and checks the
/// recovered sums against the reference instead.
const SUM_ORDER_FINDING: &str = "summary diverges from its reconstruction from the auxiliary views";

/// The recovery check: the recovered warehouse comes up without dead
/// letters, its audit raises no finding but [`SUM_ORDER_FINDING`], and its
/// summaries pass the `exact` and `sum_bound` checks against the reference.
/// A recovered image that is not byte-identical to the live one is logged:
/// rebuild paths fold `f64` sums in hash-map order, so identity fails on
/// correct state under the order-dependent `SUM(Double)` fault.
fn check_recovered(
    rec: &Warehouse,
    live_image: &[u8],
    reference: &Reference,
    expected: &[Expectation],
) -> Result<(), String> {
    if !rec.dead_letters().is_empty() {
        return Err(format!("{} dead letters", rec.dead_letters().len()));
    }
    let findings: Vec<String> = rec
        .audit()
        .into_iter()
        .flat_map(|(n, r)| r.findings.into_iter().map(move |f| format!("{n}: {f}")))
        .filter(|f| !f.ends_with(SUM_ORDER_FINDING))
        .collect();
    if !findings.is_empty() {
        return Err(format!("audit: {}", findings.join("; ")));
    }
    for (s, expectation) in Summary::ALL.iter().zip(expected) {
        let rows = rec.summary_rows(s.name()).map_err(|e| e.to_string())?;
        let out = reference.check(expectation, &rows);
        out.exact
            .and(out.sum_bound)
            .map_err(|e| format!("recovered {}: {e}", s.name()))?;
    }
    if rec.save().map_err(|e| e.to_string())? != live_image {
        eprintln!("note: the recovered image is not byte-identical to the live image");
    }
    Ok(())
}

fn maint_totals(wh: &Warehouse) -> MaintStats {
    let mut t = MaintStats::default();
    for s in Summary::ALL {
        let m = wh.stats(s.name()).expect("registered");
        t.rows_processed += m.rows_processed;
        t.groups_recomputed += m.groups_recomputed;
        t.summary_rebuilds += m.summary_rebuilds;
        t.dim_targeted_updates += m.dim_targeted_updates;
        t.dim_noop_changes += m.dim_noop_changes;
    }
    t
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process in bytes (`ru_maxrss`, the same
/// figure as `VmHWM`); 0 if the call fails.
fn peak_rss_bytes() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // duration of the call, which writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.longs[0] as f64 * 1024.0
    } else {
        0.0
    }
}

fn ms(ns: u64, per: u64) -> f64 {
    ns as f64 / 1e6 / per.max(1) as f64
}

/// What a run measures, sample by sample.
#[derive(Debug, Default)]
struct Samples {
    /// `apply_batch` latencies, seconds.
    latencies: Vec<f64>,
    /// Per round, submitted changes ÷ summed `apply_batch` seconds.
    round_rates: Vec<f64>,
    /// Batches and their summed seconds in traced rounds.
    traced: (u64, f64),
    /// Batches and their summed seconds in untraced rounds.
    untraced: (u64, f64),
    submitted: u64,
    setups: Vec<SetupSample>,
    checkpoints: Vec<f64>,
    recoveries: Vec<f64>,
    restores: Vec<f64>,
    replays: Vec<f64>,
    replayed_changes: Vec<f64>,
}

/// Sizes taken at the checkpoint of `Plan::size_round`.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    image: f64,
    aux: f64,
    base: f64,
}

/// The state of one run.
struct Run {
    plan: Plan,
    opts: Options,
    catalog: md_relation::Catalog,
    /// The source database, read only by set-ups.
    db: md_relation::Database,
    reference: Reference,
    feed: Feed,
    /// The warehouse that serves the stream.
    live: Warehouse,
    ops: Ops,
    samples: Samples,
    spans: SpanTotals,
    dropped_events: u64,
    sizes: Option<Sizes>,
    maint_before: MaintStats,
    sched_before: SchedulerStats,
    prev_image: Vec<u8>,
    prev_applied: u64,
    round: usize,
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Report {
    let mut run = Run::new(opts);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    while run.round < run.plan.min_rounds || started.elapsed() < budget {
        run.round();
    }
    run.report(started.elapsed().as_secs_f64())
}

impl Run {
    /// Generates the inputs and sets up the warehouse that serves the
    /// stream.
    fn new(opts: &Options) -> Run {
        let plan = Plan::new(opts.workload, opts.smoke);
        let star = Star::generate(plan.shape, opts.seed);
        let reference = Reference::new(&star);
        let feed = Feed::new(&star, plan.mix, opts.seed);
        let db = star.database();
        drop(star);
        eprintln!(
            "peak resident before set-up (inputs, source database, reference, generator): {:.0} MB",
            peak_rss_bytes() / 1e6
        );
        let (live, first) = set_up(&plan, &db, opts.trace);
        live.set_tracing(false);
        live.obs().tracer().clear();
        let prev_image = live.save().expect("initial checkpoint");
        let sched_before = live.scheduler_stats();
        Run {
            plan,
            opts: *opts,
            catalog: db.catalog().clone(),
            db,
            reference,
            feed,
            maint_before: maint_totals(&live),
            prev_applied: sched_before.changes_applied,
            sched_before,
            live,
            ops: Ops::default(),
            samples: Samples {
                setups: vec![first],
                ..Samples::default()
            },
            spans: SpanTotals::default(),
            dropped_events: 0,
            sizes: None,
            prev_image,
            round: 0,
        }
    }

    /// One round: stream, checkpoint, verify, recover, and one more
    /// set-up sample, so the set-up samples spread over the run.
    fn round(&mut self) {
        self.round += 1;
        let started = Instant::now();
        let batches = self.feed.batches(self.plan.batches_per_round);
        let generated = started.elapsed().as_secs_f64();
        let streamed = self.stream(&batches);
        for batch in &batches {
            self.reference.apply(batch);
        }
        drop(batches);
        let image = self.checkpoint();
        let t = Instant::now();
        let expected = Summary::ALL.map(|s| self.reference.expected(s));
        self.verify(&expected);
        let verified = t.elapsed().as_secs_f64();
        self.recover(&image, &expected);
        let (spare, sample) = set_up(&self.plan, &self.db, self.opts.trace);
        drop(spare);
        let s = &mut self.samples;
        s.setups.push(sample);
        eprintln!(
            "round {}: generate {generated:.2} s, stream {streamed:.2} s, checkpoint {:.2} s, \
             verify {verified:.2} s, recover {:.2} s, set-up {:.2} s, round {:.2} s",
            self.round,
            s.checkpoints.last().expect("pushed"),
            s.recoveries.last().expect("pushed"),
            s.setups.last().expect("pushed").total,
            started.elapsed().as_secs_f64(),
        );
        if self.round == self.plan.size_round {
            self.sizes = Some(Sizes {
                image: image.len() as f64,
                aux: self.live.total_detail_bytes() as f64,
                base: self.reference.base_bytes() as f64,
            });
        }
        self.prev_image = image;
    }

    /// Submits `batches` in a closed loop, the next when the last returns,
    /// and returns the seconds it took. A traced run records spans in odd
    /// rounds only: whole rounds keep traced and untraced batches alike.
    fn stream(&mut self, batches: &[ChangeBatch]) -> f64 {
        let started = Instant::now();
        let tracing = self.opts.trace && self.round % 2 == 1;
        self.live.set_tracing(tracing);
        let s = &mut self.samples;
        let (mut changes, mut busy) = (0usize, 0.0);
        for batch in batches {
            let t = Instant::now();
            let outcome = self.live.apply_batch(batch);
            let secs = t.elapsed().as_secs_f64();
            self.ops.record("batch", outcome.map_err(|e| e.to_string()));
            s.latencies.push(secs);
            changes += batch.change_count();
            busy += secs;
            let side = if tracing {
                &mut s.traced
            } else {
                &mut s.untraced
            };
            side.0 += 1;
            side.1 += secs;
        }
        s.submitted += changes as u64;
        s.round_rates.push(changes as f64 / busy);
        if tracing {
            self.live.set_tracing(false);
            let tracer = self.live.obs().tracer();
            self.dropped_events += tracer.dropped();
            self.spans.absorb(&tracer.events());
            tracer.clear();
        }
        started.elapsed().as_secs_f64()
    }

    /// Saves a checkpoint image of the live warehouse, timed.
    fn checkpoint(&mut self) -> Vec<u8> {
        let t = Instant::now();
        let image = self.live.save();
        self.samples.checkpoints.push(t.elapsed().as_secs_f64());
        match image {
            Ok(image) => {
                self.ops.record("checkpoint", Ok(()));
                image
            }
            Err(e) => {
                self.ops.record("checkpoint", Err(e.to_string()));
                Vec::new()
            }
        }
    }

    /// The three checks of every summary against the reference.
    fn verify(&mut self, expected: &[Expectation]) {
        for (s, expectation) in Summary::ALL.iter().zip(expected) {
            let rows = self
                .live
                .summary_rows(s.name())
                .expect("registered summary");
            let out = self.reference.check(expectation, &rows);
            let named = |r: Result<(), String>| r.map_err(|e| format!("{}: {e}", s.name()));
            self.ops.record("exact", named(out.exact));
            self.ops.record("sum_bound", named(out.sum_bound));
            self.ops.record("sum_exact", named(out.sum_exact));
        }
    }

    /// Crash recovery from the previous checkpoint plus the whole log,
    /// timed and checked against the state just checkpointed.
    fn recover(&mut self, image: &[u8], expected: &[Expectation]) {
        let s = &mut self.samples;
        let wal = self.live.wal_bytes().expect("the log is on");
        if self.opts.trace {
            let t = Instant::now();
            let restored = self.plan.builder().restore(&self.catalog, &self.prev_image);
            s.restores.push(t.elapsed().as_secs_f64());
            drop(restored);
        }
        let t = Instant::now();
        let recovered = self
            .plan
            .builder()
            .recover(&self.catalog, &self.prev_image, wal);
        let secs = t.elapsed().as_secs_f64();
        s.recoveries.push(secs);
        if let Some(restore) = s.restores.last() {
            s.replays.push(secs - restore);
        }
        let applied = self.live.scheduler_stats().changes_applied;
        s.replayed_changes
            .push((applied - self.prev_applied) as f64);
        self.prev_applied = applied;
        let outcome = recovered
            .map_err(|e| format!("recover: {e}"))
            .and_then(|rec| check_recovered(&rec, image, &self.reference, expected));
        self.ops.record("recovery", outcome);
    }

    /// The report: end-to-end metrics, or per-layer ones in a traced run.
    fn report(self, measured: f64) -> Report {
        let failed: u64 = self.ops.failures.values().sum();
        let s = &self.samples;
        eprintln!(
            "{} seed {}: {} rounds, {} batches, {} changes in {measured:.1} s; \
             {failed} of {} operations failed {:?}; tail percentile p{}, {} samples beyond",
            self.opts.workload.name(),
            self.opts.seed,
            self.round,
            s.latencies.len(),
            s.submitted,
            self.ops.attempted,
            self.ops.failures,
            self.plan.tail * 100.0,
            beyond(s.latencies.len(), self.plan.tail),
        );
        if self.dropped_events > 0 {
            eprintln!("the tracer dropped {} events", self.dropped_events);
        }
        let sizes = self.sizes.expect("size_round <= min_rounds");
        let metrics = if self.opts.trace {
            self.per_layer(sizes)
        } else {
            self.end_to_end(sizes)
        };
        let correct = self.dropped_events == 0
            && self.ops.failures.keys().all(|kind| *kind == "sum_exact")
            && metrics.iter().all(|(_, v, _)| v.is_finite());
        Report {
            correct,
            attempted: self.ops.attempted,
            failed,
            failures: self.ops.failures,
            metrics,
        }
    }

    fn wal_len(&self) -> f64 {
        self.live.wal_bytes().map_or(0, <[u8]>::len) as f64
    }

    fn end_to_end(&self, sizes: Sizes) -> Vec<(String, f64, &'static str)> {
        let s = &self.samples;
        let setups: Vec<f64> = s.setups.iter().map(|x| x.total).collect();
        vec![
            ("setup_s".into(), median(&setups), "s"),
            ("changes_per_s".into(), median(&s.round_rates), "1/s"),
            ("batch_p50_ms".into(), median(&s.latencies) * 1e3, "ms"),
            (
                "batch_tail_ms".into(),
                quantile(&s.latencies, self.plan.tail) * 1e3,
                "ms",
            ),
            ("checkpoint_ms".into(), median(&s.checkpoints) * 1e3, "ms"),
            ("snapshot_mb".into(), sizes.image / 1e6, "MB"),
            ("recover_s".into(), median(&s.recoveries), "s"),
            (
                "wal_bytes_per_change".into(),
                self.wal_len() / s.submitted as f64,
                "B",
            ),
            ("detail_ratio".into(), sizes.aux / sizes.base, "ratio"),
            ("peak_rss_mb".into(), peak_rss_bytes() / 1e6, "MB"),
        ]
    }

    fn per_layer(&self, sizes: Sizes) -> Vec<(String, f64, &'static str)> {
        let s = &self.samples;
        let spans = &self.spans;
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: String, value: f64, unit: &'static str| out.push((name, value, unit));
        let per_setup = |f: &dyn Fn(&SetupSample) -> f64| {
            median(&s.setups.iter().map(f).collect::<Vec<_>>()) * 1e3
        };
        put("sql.parse_ms".into(), per_setup(&|x| x.parse), "ms");
        put("core.derive_ms".into(), per_setup(&|x| x.derive), "ms");
        for v in Summary::ALL {
            let name = v.name();
            let load = per_setup(&|x| x.load[name]);
            put(format!("maintain.load_ms.{name}"), load, "ms");
        }
        let n = s.traced.0;
        let stages = spans.coalesce + spans.fanout + spans.wal + spans.commit;
        let other = ((s.traced.1 * 1e9) as u64).saturating_sub(stages);
        let workers_used = self.plan.workers.min(Summary::ALL.len()) as f64;
        let sched = self.live.scheduler_stats();
        let before = self.sched_before;
        put("batch.coalesce_ms".into(), ms(spans.coalesce, n), "ms");
        put(
            "batch.kept_ratio".into(),
            (sched.changes_applied - before.changes_applied) as f64
                / (sched.changes_submitted - before.changes_submitted) as f64,
            "ratio",
        );
        put("warehouse.fanout_ms".into(), ms(spans.fanout, n), "ms");
        put("warehouse.wal_ms".into(), ms(spans.wal, n), "ms");
        put("warehouse.commit_ms".into(), ms(spans.commit, n), "ms");
        put("warehouse.other_ms".into(), ms(other, n), "ms");
        put(
            "warehouse.fanout_efficiency".into(),
            spans.prepare_total() as f64 / (spans.fanout as f64 * workers_used),
            "ratio",
        );
        for (layer, by_summary) in [
            ("prepare", &spans.prepare),
            ("commit", &spans.engine_commit),
        ] {
            for v in Summary::ALL {
                let ns = by_summary.get(v.name()).copied().unwrap_or(0);
                put(format!("maintain.{layer}_ms.{}", v.name()), ms(ns, n), "ms");
            }
        }
        let batches = s.latencies.len() as f64;
        let (m, m0) = (maint_totals(&self.live), self.maint_before);
        for (name, after, before) in [
            ("rows_processed", m.rows_processed, m0.rows_processed),
            (
                "groups_recomputed",
                m.groups_recomputed,
                m0.groups_recomputed,
            ),
            ("summary_rebuilds", m.summary_rebuilds, m0.summary_rebuilds),
            (
                "dim_targeted_updates",
                m.dim_targeted_updates,
                m0.dim_targeted_updates,
            ),
            ("dim_noop_changes", m.dim_noop_changes, m0.dim_noop_changes),
        ] {
            put(
                format!("maintain.{name}"),
                (after - before) as f64 / batches,
                "count/batch",
            );
        }
        put("wal.bytes".into(), self.wal_len() / batches, "B/batch");
        put(
            "snapshot.restore_ms".into(),
            median(&s.restores) * 1e3,
            "ms",
        );
        put("recover.replay_ms".into(), median(&s.replays) * 1e3, "ms");
        put(
            "recover.replayed_changes".into(),
            median(&s.replayed_changes),
            "count",
        );
        put("storage.aux_bytes".into(), sizes.aux, "B");
        put("storage.base_bytes".into(), sizes.base, "B");
        let mean = |(k, secs): (u64, f64)| secs / k.max(1) as f64;
        put(
            "obs.trace_overhead".into(),
            mean(s.traced) / mean(s.untraced),
            "ratio",
        );
        out
    }
}
