//! End-to-end tests of the `sft-tools` binary.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use specfetch_trace::{read_trace_text, write_trace_binary, write_trace_text, PredictedTrace};

fn sft_tools() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sft_tools"))
}

/// A scratch directory of the test's own: test threads run in parallel,
/// and each test removes its directory when done.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sft-tools-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three trips round a loop, then a return with no record left.
fn sample_trace() -> PredictedTrace {
    let text = "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 5\ns\ns\ns\nb 0x1000\nr\n\
                path 3\nt\nt\nn\nend\n";
    read_trace_text(text.as_bytes(), u64::MAX).unwrap()
}

#[test]
fn info_and_stats_report() {
    let dir = temp_dir("info");
    let path = dir.join("x.sft");
    write_trace_text(&sample_trace(), &mut std::fs::File::create(&path).unwrap()).unwrap();

    let info = sft_tools().args(["info", path.to_str().unwrap()]).output().unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("image:"), "{text}");
    assert!(text.contains("5 instructions"), "{text}");
    assert!(text.contains("outcomes: 3"), "{text}");

    let stats = sft_tools().args(["stats", path.to_str().unwrap()]).output().unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("instructions:"), "{text}");
    assert!(text.contains("branches:"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_round_trips_formats() {
    let dir = temp_dir("convert");
    let text_path = dir.join("a.sft");
    let bin_path = dir.join("a.sftb");
    let back_path = dir.join("b.sft");
    write_trace_text(&sample_trace(), &mut std::fs::File::create(&text_path).unwrap()).unwrap();

    let to_bin = sft_tools()
        .args(["convert", text_path.to_str().unwrap(), bin_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(to_bin.status.success(), "{}", String::from_utf8_lossy(&to_bin.stderr));

    let to_text = sft_tools()
        .args(["convert", bin_path.to_str().unwrap(), back_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(to_text.status.success());

    let original = std::fs::read_to_string(&text_path).unwrap();
    let round_tripped = std::fs::read_to_string(&back_path).unwrap();
    assert_eq!(original, round_tripped, "text -> binary -> text must be lossless");

    // An unknown output extension fails before the output is created.
    let odd_path = dir.join("a.bin");
    let odd = sft_tools()
        .args(["convert", text_path.to_str().unwrap(), odd_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!odd.status.success());
    assert!(!odd_path.exists(), "no empty output file is left behind");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn head_prints_instructions() {
    let dir = temp_dir("head");
    let path = dir.join("h.sft");
    write_trace_text(&sample_trace(), &mut std::fs::File::create(&path).unwrap()).unwrap();

    let out = sft_tools().args(["head", path.to_str().unwrap(), "4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 4, "{text}");
    assert!(text.contains("0x1000"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_unknown_extension_and_missing_file() {
    let out = sft_tools().args(["stats", "/nonexistent.sft"]).output().unwrap();
    assert!(!out.status.success());

    let out = sft_tools().args(["stats", "/tmp/whatever.xyz"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown trace extension on /tmp/whatever.xyz"), "{err}");
}

/// Writes a valid binary trace into `dir` and returns its path + bytes.
fn binary_fixture(dir: &std::path::Path, name: &str) -> (PathBuf, Vec<u8>) {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    write_trace_binary(&sample_trace(), &mut f).unwrap();
    drop(f);
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

fn stats_stderr(path: &std::path::Path) -> (bool, String) {
    let out = sft_tools().args(["stats", path.to_str().unwrap()]).output().unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn truncated_binary_is_a_typed_parse_error() {
    let dir = std::env::temp_dir().join(format!("sft-tools-corrupt-{}-trunc", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, bytes) = binary_fixture(&dir, "trunc.sftb");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let (ok, err) = stats_stderr(&path);
    assert!(!ok, "truncated file must fail");
    assert!(err.contains("parse"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_magic_is_rejected() {
    let dir = std::env::temp_dir().join(format!("sft-tools-corrupt-{}-magic", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, mut bytes) = binary_fixture(&dir, "magic.sftb");
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    let (ok, err) = stats_stderr(&path);
    assert!(!ok);
    assert!(err.contains("bad trace header"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_payload_byte_is_caught_by_the_checksum() {
    let dir = std::env::temp_dir().join(format!("sft-tools-corrupt-{}-flip", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, mut bytes) = binary_fixture(&dir, "flip.sftb");
    // Flip a bit inside the 8-byte FNV footer: the body parses cleanly,
    // so only the checksum comparison can catch it.
    let n = bytes.len();
    bytes[n - 3] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    let (ok, err) = stats_stderr(&path);
    assert!(!ok);
    assert!(err.contains("checksum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_from_the_future_is_rejected() {
    let dir = std::env::temp_dir().join(format!("sft-tools-corrupt-{}-future", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, mut bytes) = binary_fixture(&dir, "future.sftb");
    // The u16 version follows the 4-byte magic, little-endian.
    bytes[4] = 0xEE;
    bytes[5] = 0x03;
    std::fs::write(&path, &bytes).unwrap();
    let (ok, err) = stats_stderr(&path);
    assert!(!ok);
    assert!(err.contains("unsupported trace version 1006"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_endless_loop_without_records_fails_fast() {
    // A jump back to the entry with no path records: the file cannot say
    // how long the loop ran, so every command rejects it rather than
    // walking forever.
    let dir = temp_dir("loop");
    let path = dir.join("loop.sft");
    std::fs::write(
        &path,
        "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 2\ns\nj 0x1000\npath 0\nend\n",
    )
    .unwrap();
    for cmd in ["stats", "info", "head"] {
        let mut child = sft_tools()
            .args([cmd, path.to_str().unwrap()])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let start = Instant::now();
        while child.try_wait().unwrap().is_none() {
            if start.elapsed() > Duration::from_secs(20) {
                child.kill().ok();
                panic!("sft-tools {cmd} still walking the loop after 20 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("path loops without records at 0x1000"), "{cmd}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_path_count_past_the_end_of_the_file_is_malformed() {
    let dir = temp_dir("count");
    let path = dir.join("count.sft");
    std::fs::write(
        &path,
        "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 1\ns\npath 99999999999999\n",
    )
    .unwrap();
    let out = sft_tools().args(["info", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("malformed trace at 6: truncated path"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_args_prints_usage() {
    let out = sft_tools().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
