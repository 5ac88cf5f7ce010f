//! `specfetch`: simulate a trace file (or a built-in benchmark) under a
//! chosen fetch policy and print the full measurement bundle.
//!
//! ```text
//! specfetch --trace prog.sftb --policy resume --penalty 5 --cache 8k
//! specfetch --bench gcc --policy pessimistic --instrs 1000000 --prefetch
//! ```

use std::io::BufReader;
use std::process::ExitCode;

use specfetch::cache::CacheConfig;
use specfetch::core::{FetchPolicy, SimConfig, SimResult, Simulator};
use specfetch::synth::suite::Benchmark;
use specfetch::trace::{read_trace_binary, read_trace_text, PathSource};

struct Args {
    trace: Option<String>,
    bench: Option<String>,
    instrs: u64,
    cfg: SimConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { trace: None, bench: None, instrs: 1_000_000, cfg: SimConfig::paper_baseline() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--trace" => args.trace = Some(value()?),
            "--bench" => args.bench = Some(value()?),
            "--instrs" => {
                args.instrs = value()?.parse().map_err(|_| "bad --instrs")?;
                if args.instrs == 0 {
                    return Err("--instrs must be positive".into());
                }
            }
            "--policy" => {
                let v = value()?;
                args.cfg.policy = FetchPolicy::parse(&v).ok_or(format!("unknown policy {v:?}"))?;
            }
            "--penalty" => {
                args.cfg.miss_penalty = value()?.parse().map_err(|_| "bad --penalty")?;
            }
            "--depth" => {
                args.cfg.max_unresolved = value()?.parse().map_err(|_| "bad --depth")?;
            }
            "--cache" => {
                args.cfg.icache = match value()?.as_str() {
                    "8k" => CacheConfig::paper_8k(),
                    "32k" => CacheConfig::paper_32k(),
                    other => return Err(format!("unknown cache {other:?} (8k|32k)")),
                };
            }
            "--prefetch" => args.cfg.prefetch = true,
            "--target-prefetch" => args.cfg.target_prefetch = true,
            "--stream-buffer" => args.cfg.stream_buffer = true,
            "--bus-slots" => {
                args.cfg.bus_slots = value()?.parse().map_err(|_| "bad --bus-slots")?;
            }
            "--classify" => args.cfg.classify = true,
            "--help" | "-h" => {
                println!(
                    "usage: specfetch (--trace FILE.sft[b] | --bench NAME) [--instrs N]\n\
                     [--policy oracle|optimistic|resume|pessimistic|decode|dynamic]\n\
                     [--penalty N] [--depth N] [--cache 8k|32k]\n\
                     [--prefetch] [--target-prefetch] [--stream-buffer]\n\
                     [--bus-slots N] [--classify]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_none() && args.bench.is_none() {
        return Err("one of --trace or --bench is required (see --help)".into());
    }
    args.cfg.validate().map_err(|e| e.to_string())?;
    Ok(args)
}

fn report(r: &SimResult) {
    println!("policy:        {}", r.policy);
    println!("instructions:  {}", r.correct_instrs);
    println!("cycles:        {}", r.cycles);
    println!(
        "IPC:           {:.3} (of {} wide)",
        r.correct_instrs as f64 / r.cycles.max(1) as f64,
        r.issue_width
    );
    println!("ISPI:          {:.4}", r.ispi());
    for (label, slots) in r.lost.components() {
        println!("  {label:<14} {:.4}", r.ispi_component(slots));
    }
    println!("miss rate:     {:.2}% correct-path", r.miss_rate_pct());
    println!(
        "branch events: {} misfetch, {} mispredict, {} target-mispredict",
        r.misfetches, r.mispredicts, r.target_mispredicts
    );
    println!("bpred:         {}", r.bpred);
    println!(
        "traffic:       {} fills ({} correct, {} wrong, {} prefetch, {} target)",
        r.total_traffic(),
        r.traffic_demand_correct,
        r.traffic_demand_wrong,
        r.traffic_prefetch,
        r.traffic_target_prefetch
    );
    if let Some(c) = &r.classification {
        println!("classification: {c}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sim = Simulator::new(args.cfg);

    let result = if let Some(path) = &args.trace {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let reader = BufReader::new(file);
        let trace = if path.ends_with(".sftb") {
            read_trace_binary(reader)
        } else {
            read_trace_text(reader)
        };
        match trace {
            Ok(t) => sim.run(t.into_source().take_instrs(args.instrs)),
            Err(e) => {
                eprintln!("error: parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let name = args.bench.as_deref().expect("checked in parse_args");
        let Some(bench) = Benchmark::by_name(name) else {
            eprintln!(
                "error: unknown benchmark {name:?}; known: {}",
                Benchmark::all().iter().map(|b| b.name).collect::<Vec<_>>().join(" ")
            );
            return ExitCode::FAILURE;
        };
        let workload = bench.workload().expect("calibrated specs generate");
        sim.run(workload.executor(bench.path_seed()).take_instrs(args.instrs))
    };

    report(&result);
    ExitCode::SUCCESS
}
