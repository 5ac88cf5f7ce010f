//! `sft-tools`: inspect and convert `.sft` / `.sftb` trace files.
//!
//! ```text
//! sft-tools stats   <trace>            # path statistics (Table 2 style)
//! sft-tools info    <trace>            # image geometry and path record count
//! sft-tools convert <in> <out>         # text <-> binary by extension
//! sft-tools head    <trace> [n]        # print the first n replayed instructions
//! ```
//!
//! Format is chosen by extension: `.sft` = text, `.sftb` = binary.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use specfetch_trace::{
    read_trace_file, write_trace_binary, write_trace_text, PathSource, PredictedTrace, TraceError,
    TraceStats,
};

/// The file's path, walked for at most `max_instrs` instructions.
fn load(path: &Path, max_instrs: u64) -> Result<Arc<PredictedTrace>, String> {
    read_trace_file(path, max_instrs).map(Arc::new).map_err(|e| e.to_string())
}

fn store(trace: &PredictedTrace, path: &Path) -> Result<(), String> {
    let binary = match path.extension().and_then(|e| e.to_str()) {
        Some("sft") => false,
        Some("sftb") => true,
        other => return Err(format!("unknown trace extension {other:?} (expected .sft or .sftb)")),
    };
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    let r = if binary {
        write_trace_binary(trace, &mut writer)
    } else {
        write_trace_text(trace, &mut writer)
    };
    // Dropping a `BufWriter` would discard the error of its last write.
    r.and_then(|()| writer.flush().map_err(TraceError::Io))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn cmd_info(path: &Path) -> Result<(), String> {
    let trace = load(path, u64::MAX)?;
    let p = trace.program();
    println!("image:    {} instructions ({} KB)", p.len(), p.footprint_bytes() / 1024);
    println!("base:     {}", p.base());
    println!("entry:    {}", p.entry());
    println!("branches: {} static", p.static_branch_count());
    println!("outcomes: {} recorded", trace.record_count());
    Ok(())
}

fn cmd_stats(path: &Path) -> Result<(), String> {
    let stats = TraceStats::from_source(&mut PredictedTrace::source(&load(path, u64::MAX)?));
    println!("instructions: {}", stats.instrs);
    println!("branches:     {} ({:.1}%)", stats.branches, stats.branch_pct());
    println!(
        "  conditional {} ({:.0}% taken), jumps {}, calls {}, returns {}, indirect {}",
        stats.cond_branches,
        100.0 * stats.taken_ratio(),
        stats.jumps,
        stats.calls,
        stats.returns,
        stats.indirects
    );
    println!("footprint:    {} KB touched (32-byte lines)", stats.dynamic_footprint_bytes() / 1024);
    Ok(())
}

fn cmd_convert(input: &Path, output: &Path) -> Result<(), String> {
    store(&*load(input, u64::MAX)?, output)?;
    println!("converted {} -> {}", input.display(), output.display());
    Ok(())
}

fn cmd_head(path: &Path, n: usize) -> Result<(), String> {
    let mut source = PredictedTrace::source(&load(path, n as u64)?);
    while let Some(d) = source.next_instr() {
        println!("{d}");
    }
    Ok(())
}

fn usage() -> String {
    "usage: sft-tools <stats|info|head|convert> <trace> [args]\n\
     \n\
     stats   <trace>        path statistics\n\
     info    <trace>        image geometry\n\
     head    <trace> [n]    first n replayed instructions (default 16)\n\
     convert <in> <out>     convert between .sft (text) and .sftb (binary)"
        .to_owned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, path] if cmd == "stats" => cmd_stats(Path::new(path)),
        [cmd, path] if cmd == "info" => cmd_info(Path::new(path)),
        [cmd, path] if cmd == "head" => cmd_head(Path::new(path), 16),
        [cmd, path, n] if cmd == "head" => match n.parse() {
            Ok(n) => cmd_head(Path::new(path), n),
            Err(_) => Err(format!("bad count {n:?}")),
        },
        [cmd, input, output] if cmd == "convert" => {
            cmd_convert(Path::new(input), Path::new(output))
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
