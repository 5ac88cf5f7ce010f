//! The traced in-process replay: the work one `specfetch-repro`
//! invocation does, re-issued as calls to each layer's public API with a
//! span around every call, so per-layer time comes from timing the
//! benchmark itself makes and the program stays untraced.
//!
//! A grid replay follows the runner's schedule: traces are recorded and
//! overlaid once per benchmark, each scenario's grid points are grouped
//! by benchmark, configurations already simulated are dropped (the
//! result memo's rule), and each group runs as one `run_lockstep` batch
//! on `par_map`, persisting every lane to the result store. Reports are
//! then rendered by the program's own entry points from that store, so
//! their bytes prove the replay did the same work as the real run.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use specfetch_core::{run_lockstep, FrontEnd, SimConfig};
use specfetch_experiments::result_store::{self, StoredOutcome};
use specfetch_experiments::{
    analysis, codec, par_map, parse_sweep, run_experiment, trace_cache, Driver, Format, JobSpec,
    RunOptions, Scenario, EXPERIMENT_IDS, REGISTRY,
};
use specfetch_synth::suite::Benchmark;
use specfetch_trace::{PathSource, PredictedTrace};

use crate::catalog::Values;
use crate::tracer::{Args, Kind, Tracer};
use crate::PARALLEL;

/// Instructions per lockstep round. Mirrors the private `QUANTUM` of
/// `specfetch_core::lockstep`, so the decode probe materialises the same
/// windows `run_lockstep` does.
const LOCKSTEP_QUANTUM: usize = 16 * 1024;

const MIB: f64 = 1024.0 * 1024.0;

/// One lockstep batch: a benchmark and the configurations it still has
/// to simulate.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The benchmark whose overlay every lane replays.
    pub bench: &'static Benchmark,
    /// One lane per configuration.
    pub cfgs: Vec<SimConfig>,
}

/// The batches of a run after the memo rule, per scenario.
#[derive(Clone, Debug)]
pub struct Plan {
    /// `(scenario id, its batches)` in run order.
    pub stages: Vec<(String, Vec<Batch>)>,
    /// Grid points before deduplication.
    pub grid_points: usize,
}

impl Plan {
    /// Groups each scenario's grid by benchmark and drops every
    /// configuration an earlier point already simulated.
    pub fn new(scenarios: &[(String, Scenario)]) -> Plan {
        let mut seen: HashSet<(&'static str, SimConfig)> = HashSet::new();
        let mut stages = Vec::new();
        let mut grid_points = 0;
        for (id, scenario) in scenarios {
            let mut batches: Vec<Batch> = Vec::new();
            for p in scenario.grid_points() {
                grid_points += 1;
                if !seen.insert((p.benchmark.name, p.cfg)) {
                    continue;
                }
                match batches.iter_mut().find(|b| std::ptr::eq(b.bench, p.benchmark)) {
                    Some(b) => b.cfgs.push(p.cfg),
                    None => batches.push(Batch { bench: p.benchmark, cfgs: vec![p.cfg] }),
                }
            }
            stages.push((id.clone(), batches));
        }
        Plan { stages, grid_points }
    }

    /// Every distinct point, in run order.
    pub fn points(&self) -> Vec<(&'static Benchmark, SimConfig)> {
        let batches = self.stages.iter().flat_map(|(_, b)| b);
        batches.flat_map(|b| b.cfgs.iter().map(move |c| (b.bench, *c))).collect()
    }

    /// Distinct points (lanes) over the whole run.
    pub fn distinct(&self) -> usize {
        self.stages.iter().flat_map(|(_, b)| b).map(|b| b.cfgs.len()).sum()
    }

    /// Lockstep batches over the whole run.
    pub fn batches(&self) -> usize {
        self.stages.iter().map(|(_, b)| b.len()).sum()
    }

    /// The benchmarks any batch replays, in suite order.
    pub fn benches(&self) -> Vec<&'static Benchmark> {
        let used = |b: &Benchmark| {
            self.stages.iter().flat_map(|(_, s)| s).any(|x| std::ptr::eq(x.bench, b))
        };
        Benchmark::all().iter().filter(|b| used(b)).collect()
    }
}

/// The grid scenarios `--experiment all` evaluates, in run order
/// (`table2` characterises traces and has none).
pub fn paper_scenarios() -> Vec<(String, Scenario)> {
    EXPERIMENT_IDS
        .iter()
        .filter_map(|id| REGISTRY.iter().find(|e| e.id == *id))
        .filter_map(|e| e.scenario.map(|f| (e.id.to_owned(), f())))
        .collect()
}

/// The scenario a `--sweep` spec evaluates.
///
/// # Errors
///
/// The spec's parse error.
pub fn sweep_scenario(spec: &str) -> Result<Vec<(String, Scenario)>, String> {
    let s = parse_sweep(spec).map_err(|e| e.to_string())?;
    Ok(vec![("sweep".to_owned(), s)])
}

/// Points the process-wide result store at `dir`. It can be set once per
/// process, so a second call must name the same directory.
///
/// # Errors
///
/// A different directory is already configured.
pub fn use_store(dir: &Path) -> Result<(), String> {
    match result_store::dir() {
        Some(d) if d == dir => Ok(()),
        Some(d) => Err(format!("result store already set to {}", d.display())),
        None => result_store::set_dir(dir.to_path_buf()).map_err(|e| e.to_string()),
    }
}

/// The overlay each benchmark's lanes replayed.
pub type Overlays = Vec<(&'static Benchmark, Arc<PredictedTrace>)>;

fn args(bench: &'static str, lanes: usize, instrs: u64) -> Args {
    Args { bench, lanes: lanes as u64, instrs }
}

/// Records, overlays and preflights every benchmark of `plan`, then runs
/// its batches in lockstep and stores each lane in `store`. Returns the
/// overlays the lanes replayed.
///
/// # Errors
///
/// A benchmark that fails preflight or recording, a configuration the
/// front end rejects, or a lane that panics.
pub fn replay_grid(t: &Tracer, plan: &Plan, window: u64, store: &Path) -> Result<Overlays, String> {
    let benches = plan.benches();
    let prepared = t.span(Kind::Phase, "trace.prepare", args("", 0, window), || {
        par_map(benches, PARALLEL, |b| {
            let a = args(b.name, 0, window);
            t.span(Kind::Item, "prepare", a, || {
                t.span(Kind::Layer, "experiments.preflight", a, || analysis::preflight(b))
                    .map_err(|e| e.to_string())?;
                t.span(Kind::Layer, "trace.record", a, || trace_cache::try_shared_trace(b, window))
                    .map_err(|e| e.to_string())?;
                let overlay = t
                    .span(Kind::Layer, "trace.overlay_build", a, || {
                        trace_cache::try_predicted_trace(b, window)
                    })
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((b, overlay))
            })
        })
    });
    let overlays = prepared.into_iter().collect::<Result<Vec<_>, String>>()?;
    let by_name: HashMap<&str, &Arc<PredictedTrace>> =
        overlays.iter().map(|(b, o)| (b.name, o)).collect();

    for (id, batches) in &plan.stages {
        let done = t.span(Kind::Phase, &format!("core.batches.{id}"), args("", 0, window), || {
            par_map(batches.iter().collect(), PARALLEL, |batch: &Batch| {
                let b = batch.bench;
                let a = args(b.name, batch.cfgs.len(), window);
                t.span(Kind::Item, "batch", a, || {
                    let overlay = by_name.get(b.name).ok_or("batch without an overlay")?;
                    run_batch(t, batch, overlay, window, store)
                })
            })
        });
        done.into_iter().collect::<Result<(), String>>()?;
    }
    Ok(overlays)
}

fn run_batch(
    t: &Tracer,
    batch: &Batch,
    overlay: &Arc<PredictedTrace>,
    window: u64,
    store: &Path,
) -> Result<(), String> {
    let b = batch.bench;
    let fronts = batch
        .cfgs
        .iter()
        .map(|c| FrontEnd::build(*c).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let lanes = t.span(Kind::Layer, "core.lockstep", args(b.name, fronts.len(), window), || {
        run_lockstep(overlay, fronts)
    });
    for (cfg, lane) in batch.cfgs.iter().zip(lanes) {
        let r = lane.map_err(|_| format!("a lockstep lane of {} panicked", b.name))?;
        t.span(Kind::Layer, "store.put", args(b.name, 1, window), || {
            result_store::put_in(store, b.name, window, cfg, &r)
        });
    }
    Ok(())
}

/// Renders `ids` through `run_experiment` exactly as the CLI prints
/// them: each report followed by a newline.
///
/// # Errors
///
/// An experiment that fails or renders a `FAILED(...)` cell.
pub fn render_experiments(t: &Tracer, ids: &[&str], window: u64) -> Result<String, String> {
    let opts = RunOptions { parallel: PARALLEL, ..RunOptions::new().with_instrs(window) };
    let mut out = String::new();
    for id in ids {
        let (failed, text) = t
            .span(Kind::Layer, &format!("experiments.render.{id}"), args("", 0, window), || {
                run_experiment(id, &opts).map(|r| (r.failed_cells(), r.render(Format::Plain)))
            })
            .map_err(|e| e.to_string())?;
        if failed > 0 {
            return Err(format!("{id} rendered {failed} failed cell(s)"));
        }
        out.push_str(&text);
        out.push('\n');
    }
    Ok(out)
}

/// Runs a sweep through the job driver under span `name`, returning the
/// bytes the CLI prints (and a served job's result body).
///
/// # Errors
///
/// A sweep that fails or renders a `FAILED(...)` cell.
pub fn drive_sweep(t: &Tracer, name: &str, spec: &str, window: u64) -> Result<String, String> {
    let opts = RunOptions { parallel: PARALLEL, ..RunOptions::new().with_instrs(window) };
    let mut body = String::new();
    let outcome = t.span(Kind::Layer, name, args("", 0, window), || {
        Driver::new(opts, Format::Plain).run(&JobSpec::Sweep(spec.to_owned()), &mut |text: &str| {
            body.push_str(text);
            body.push('\n');
        })
    });
    if outcome.failed() {
        return Err(format!("sweep {spec:?} failed: {outcome:?}"));
    }
    Ok(body)
}

/// Probe: generating each benchmark's program and interpreting its
/// correct path over `window` instructions — the two halves of what
/// `trace.record` does.
///
/// # Errors
///
/// A benchmark that fails to generate.
pub fn probe_synth(t: &Tracer, benches: &[&'static Benchmark], window: u64) -> Result<(), String> {
    for b in benches {
        let a = args(b.name, 0, window);
        let w =
            t.span(Kind::Probe, "synth.generate", a, || b.workload()).map_err(|e| e.to_string())?;
        let n = t.span(Kind::Probe, "synth.interpret", a, || {
            let mut path = w.executor(b.path_seed()).take_instrs(window);
            let mut n = 0u64;
            while path.next_instr().is_some() {
                n += 1;
            }
            n
        });
        std::hint::black_box(n);
    }
    Ok(())
}

/// Probe: materialising every decode window of each overlay once, the
/// decode work one `run_lockstep` call shares across its lanes.
pub fn probe_decode(t: &Tracer, overlays: &[(&'static Benchmark, Arc<PredictedTrace>)]) {
    for (b, ov) in overlays {
        let n = ov.len();
        t.span(Kind::Probe, "trace.decode_window", args(b.name, 0, n as u64), || {
            let (mut start, mut ord) = (0, 0);
            while start < n {
                let end = (start + LOCKSTEP_QUANTUM).min(n);
                std::hint::black_box(ov.decode_window(start, end + 64, ord));
                ord += ov.branches_in(start, end);
                start = end;
            }
        });
    }
}

/// Probe: reading every point back from the store at `dir`, then one
/// codec round trip per result.
///
/// # Errors
///
/// A point missing from the store, or a result the codec changes.
pub fn probe_store(
    t: &Tracer,
    dir: &Path,
    points: &[(&'static Benchmark, SimConfig)],
    window: u64,
) -> Result<(), String> {
    for (b, cfg) in points {
        let a = args(b.name, 1, window);
        let got =
            t.span(Kind::Probe, "store.get", a, || result_store::get_in(dir, b.name, window, cfg));
        let Some(StoredOutcome::Completed(r)) = got else {
            return Err(format!("{}: point missing from the store at {}", b.name, dir.display()));
        };
        let line = t.span(Kind::Probe, "codec.encode", a, || codec::encode_result(&r));
        let back = t.span(Kind::Probe, "codec.decode", a, || codec::decode_result(&line));
        if back.ok().as_ref() != Some(&r) {
            return Err(format!("{}: codec round trip changed a result", b.name));
        }
    }
    Ok(())
}

fn mean_ms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        1e3 * xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The layers a grid replay exercises — synth, trace, core, experiments
/// and store writes — from the spans in `t` (probes included) and the
/// replay itself.
///
/// # Errors
///
/// Unknown metric names (a catalog bug).
pub fn grid_layers(
    v: &mut Values,
    t: &Tracer,
    plan: &Plan,
    overlays: &Overlays,
    window: u64,
) -> Result<(), String> {
    synth_layers(v, t)?;
    let record_mb: f64 = overlays.iter().map(|(_, o)| o.base().heap_bytes() as f64).sum();
    let overlay_mb: f64 = overlays.iter().map(|(_, o)| o.heap_bytes() as f64).sum();
    // One decode probe per overlay; every batch of that benchmark
    // decodes the same windows once more.
    let mut batches_of: HashMap<&str, f64> = HashMap::new();
    for batch in plan.stages.iter().flat_map(|(_, b)| b) {
        *batches_of.entry(batch.bench.name).or_default() += 1.0;
    }
    let decode_s: f64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "trace.decode_window")
        .map(|s| s.secs() * batches_of.get(s.args.bench).copied().unwrap_or(0.0))
        .sum();
    let lockstep = t.durations_s("core.lockstep");
    let lockstep_s: f64 = lockstep.iter().sum();
    let lanes = plan.distinct() as f64;
    let batches = plan.batches() as f64;
    let sets = [
        ("trace.record_s", t.total_s("trace.record")),
        ("trace.overlay_build_s", t.total_s("trace.overlay_build")),
        ("trace.record_mb", record_mb / MIB),
        ("trace.overlay_mb", overlay_mb / MIB),
        ("trace.decode_window_s", decode_s),
        ("core.lockstep_s", lockstep_s),
        ("core.step_s", (lockstep_s - decode_s).max(0.0)),
        (
            "core.lane_mips",
            if lockstep_s > 0.0 { lanes * window as f64 / lockstep_s / 1e6 } else { 0.0 },
        ),
        ("core.lanes_per_batch", if batches > 0.0 { lanes / batches } else { 0.0 }),
        ("core.batches", batches),
        ("core.batch_max_s", lockstep.iter().copied().fold(0.0, f64::max)),
        ("experiments.dedup_frac", 1.0 - lanes / plan.grid_points.max(1) as f64),
        ("experiments.preflight_ms", 1e3 * t.total_s("experiments.preflight")),
        ("store.put_ms", mean_ms(&t.durations_s("store.put"))),
    ];
    for (name, value) in sets {
        v.set(name, value)?;
    }
    Ok(())
}

/// Synth probe metrics: total generation time and interpretation rate.
///
/// # Errors
///
/// Unknown metric names (a catalog bug).
pub fn synth_layers(v: &mut Values, t: &Tracer) -> Result<(), String> {
    let interpret_s = t.total_s("synth.interpret");
    let instrs: u64 =
        t.spans().iter().filter(|s| s.name == "synth.interpret").map(|s| s.args.instrs).sum();
    v.set("synth.generate_ms", 1e3 * t.total_s("synth.generate"))?;
    let mips = if interpret_s > 0.0 { instrs as f64 / interpret_s / 1e6 } else { 0.0 };
    v.set("synth.interpret_mips", mips)
}

/// Render and store-read metrics: per-experiment render times, the
/// total, and per-entry store and codec costs from the probes.
///
/// # Errors
///
/// Unknown metric names (a catalog bug).
pub fn render_layers(v: &mut Values, t: &Tracer) -> Result<(), String> {
    let mut total = 0.0;
    for s in t.spans().iter().filter(|s| s.name.starts_with("experiments.render.")) {
        total += s.secs();
        let id = &s.name["experiments.render.".len()..];
        if EXPERIMENT_IDS.contains(&id) {
            v.set(&format!("experiments.warm_ms.{id}"), 1e3 * s.secs())?;
        }
    }
    v.set("experiments.render_s", total)?;
    v.set("store.get_ms", mean_ms(&t.durations_s("store.get")))?;
    v.set("codec.encode_us", 1e3 * mean_ms(&t.durations_s("codec.encode")))?;
    v.set("codec.decode_us", 1e3 * mean_ms(&t.durations_s("codec.decode")))
}
