//! The results pinned in `tests/fixtures/path_results.txt`: one
//! `codec::encode_result` line per case, recorded while `Simulator::run`
//! still fed the engine one live instruction at a time
//! (`tests/gate_regression.rs` regenerates the file).

use specfetch::core::SimResult;
use specfetch::experiments::codec::encode_result;

const PATH_FIXTURE: &str = include_str!("../fixtures/path_results.txt");

/// Asserts that `r` is, field for field, the result pinned for `case`.
pub fn assert_pinned(case: &str, r: &SimResult) {
    let want = PATH_FIXTURE
        .lines()
        .find_map(|line| line.strip_prefix(case)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("path_results.txt has no row {case}"));
    assert_eq!(encode_result(r), want, "{case}: drifted from the pinned live-source result");
}
