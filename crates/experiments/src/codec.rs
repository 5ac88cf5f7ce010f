//! The one line-record format behind every internal encoding: result
//! store entries, journal (WAL) lines and the `--workers` pipe.
//!
//! A record is one line of space-separated `key=value` tokens that opens
//! with its `kind` and ends in an FNV-1a 64 checksum of every byte
//! before that last token:
//!
//! ```text
//! kind=point idx=0 fault=none cfg=v=1\spolicy=Res\scache=8K... sum=5be0c3a1f27d9e04
//! ```
//!
//! [`Record`] writes one. Integers are plain decimal; string values are
//! escaped so they never hold a space, a newline or any other ASCII
//! control character (`\\`, `\s`, `\n`, `\r`, `\t`, and `\xHH` for the
//! rest). [`Fields`] reads one strictly: a torn or flipped line fails
//! its checksum, each key is taken exactly once, and
//! [`Fields::finish`] rejects whatever is left, so a missing, unknown or
//! repeated key is an error, never a half-filled value.
//!
//! [`encode_result`]/[`decode_result`] render a full [`SimResult`] as
//! the bare field tokens of a record (no `kind`, no checksum); store
//! entries and worker cells embed the same tokens. The field walk
//! destructures the struct exhaustively, so adding a measurement field
//! is a compile error here until the codec learns it. JSON is spoken
//! only to outside clients (`--list --json`, job snapshots, HTTP), via
//! [`json_escape`].

use std::fmt::Write as _;

use specfetch_bpred::BpredStats;
use specfetch_cache::CacheStats;
use specfetch_core::{fnv1a, FetchPolicy, IspiBreakdown, MissClass, SimResult, SpecfetchError};

/// The error every decoder of a record reports.
pub(crate) fn bad(detail: String) -> SpecfetchError {
    SpecfetchError::InvalidSpec { detail }
}

/// One record under construction; [`Record::seal`] finishes the line.
#[derive(Debug)]
pub struct Record(String);

impl Record {
    /// Starts a record whose first token is `kind=<kind>`.
    pub fn new(kind: &str) -> Self {
        Record(String::with_capacity(96)).str("kind", kind)
    }

    fn key(&mut self, key: &str) {
        debug_assert!(!key.is_empty() && !key.contains([' ', '=']), "bad record key {key:?}");
        if !self.0.is_empty() {
            self.0.push(' ');
        }
        self.0.push_str(key);
        self.0.push('=');
    }

    /// Appends an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Appends a string field, escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        for c in value.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                ' ' => self.0.push_str("\\s"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if c.is_ascii_control() => {
                    let _ = write!(self.0, "\\x{:02x}", c as u32);
                }
                c => self.0.push(c),
            }
        }
        self
    }

    /// The finished line: the fields, the checksum token, and `\n`.
    pub fn seal(mut self) -> String {
        let sum = fnv1a(self.0.as_bytes());
        let _ = writeln!(self.0, " sum={sum:016x}");
        self.0
    }
}

/// One record being read: [`take`](Fields::take) each key exactly once,
/// then [`finish`](Fields::finish). Every method fails with
/// [`SpecfetchError::InvalidSpec`] naming what was wrong.
#[derive(Debug)]
pub struct Fields<'a> {
    /// The tokens in line order; a taken token's key is blanked.
    fields: Vec<(&'a str, &'a str)>,
    /// Where the next lookup starts: decoders take keys in the order
    /// encoders wrote them, so most lookups hit on the first compare.
    next: usize,
}

impl<'a> Fields<'a> {
    /// Verifies one sealed line (with or without its `\n`) against its
    /// checksum and splits the fields before it.
    pub fn unseal(line: &'a str) -> Result<Self, SpecfetchError> {
        let line = line.strip_suffix('\n').unwrap_or(line);
        let (body, sum) =
            line.rsplit_once(" sum=").ok_or_else(|| bad("record has no checksum".to_owned()))?;
        let want = format!("{:016x}", fnv1a(body.as_bytes()));
        if sum != want {
            return Err(bad(format!("record checksum mismatch (line {sum:?}, computed {want})")));
        }
        Self::parse(body)
    }

    /// Splits unsealed `key=value` tokens.
    pub fn parse(body: &'a str) -> Result<Self, SpecfetchError> {
        let fields = body
            .split(' ')
            .map(|token| match token.split_once('=') {
                Some((key, value)) if !key.is_empty() => Ok((key, value)),
                _ => Err(bad(format!("bad record token {token:?} (expected key=value)"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fields { fields, next: 0 })
    }

    /// The raw (still escaped) value of `key`.
    pub fn take(&mut self, key: &str) -> Result<&'a str, SpecfetchError> {
        let n = self.fields.len();
        for i in (self.next..n).chain(0..self.next) {
            if self.fields[i].0 == key {
                self.fields[i].0 = "";
                self.next = i + 1;
                return Ok(self.fields[i].1);
            }
        }
        Err(bad(format!("record is missing key {key:?}")))
    }

    /// [`take`](Fields::take) as a decimal integer.
    pub fn take_u64(&mut self, key: &str) -> Result<u64, SpecfetchError> {
        let value = self.take(key)?;
        // `u64::from_str` also takes a leading `+`, which no encoder writes.
        let v = value.parse().ok().filter(|_| !value.starts_with('+'));
        v.ok_or_else(|| bad(format!("bad integer {value:?} for key {key:?}")))
    }

    /// [`take`](Fields::take) as a string, unescaped.
    pub fn take_str(&mut self, key: &str) -> Result<String, SpecfetchError> {
        let value = self.take(key)?;
        unescape(value).ok_or_else(|| bad(format!("bad escape in {value:?} for key {key:?}")))
    }

    /// Ends the read; fails naming every key nothing took (an unknown
    /// key, or a repeat of one that was taken).
    pub fn finish(self) -> Result<(), SpecfetchError> {
        let left: Vec<&str> = self.fields.iter().map(|f| f.0).filter(|k| !k.is_empty()).collect();
        if left.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("record has unknown or repeated keys {left:?}")))
        }
    }
}

/// Inverse of [`Record::str`]'s escaping; `None` for a malformed escape
/// or a raw control character.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                's' => ' ',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'x' => {
                    let hex = [chars.next()?.to_digit(16)?, chars.next()?.to_digit(16)?];
                    Some(char::from_u32(hex[0] * 16 + hex[1])?).filter(char::is_ascii_control)?
                }
                _ => return None,
            },
            c if c.is_ascii_control() => return None,
            c => c,
        });
    }
    Some(out)
}

/// Renders a [`SimResult`] as its bare record tokens (no `kind`, no
/// checksum).
pub fn encode_result(r: &SimResult) -> String {
    put_result(Record(String::with_capacity(640)), r).0
}

/// Appends every field of `r` to `rec`.
pub(crate) fn put_result(mut rec: Record, r: &SimResult) -> Record {
    // Exhaustive destructuring: a new field anywhere below fails to
    // compile until both directions of the codec handle it.
    let SimResult {
        policy,
        correct_instrs,
        cycles,
        issue_width,
        lost: IspiBreakdown { branch_full, branch, force_resolve, rt_icache, wrong_icache, bus },
        pht_mispredict_slots,
        btb_misfetch_slots,
        btb_mispredict_slots,
        misfetches,
        mispredicts,
        target_mispredicts,
        cache_correct: CacheStats { accesses: cc_acc, misses: cc_miss, fills: cc_fill },
        cache_wrong: CacheStats { accesses: cw_acc, misses: cw_miss, fills: cw_fill },
        bpred:
            BpredStats {
                cond_resolved,
                cond_mispredicted,
                btb_lookups,
                btb_hits,
                returns_resolved,
                returns_mispredicted,
                indirects_resolved,
                indirects_mispredicted,
            },
        traffic_demand_correct,
        traffic_demand_wrong,
        traffic_prefetch,
        traffic_target_prefetch,
        classification,
        prefetch_hits,
    } = *r;
    // Every value below is an integer or a policy token, so the tokens
    // need no escaping.
    rec.key("policy");
    let _ = write!(
        rec.0,
        "{} instrs={correct_instrs} cycles={cycles} width={issue_width} \
         lost.bfull={branch_full} lost.branch={branch} lost.fres={force_resolve} \
         lost.rti={rt_icache} lost.wi={wrong_icache} lost.bus={bus} \
         pht.slots={pht_mispredict_slots} btbmf.slots={btb_misfetch_slots} \
         btbmp.slots={btb_mispredict_slots} misfetches={misfetches} \
         mispredicts={mispredicts} tgt.mispredicts={target_mispredicts} \
         cc.acc={cc_acc} cc.miss={cc_miss} cc.fill={cc_fill} \
         cw.acc={cw_acc} cw.miss={cw_miss} cw.fill={cw_fill} \
         bp.cres={cond_resolved} bp.cmis={cond_mispredicted} bp.blook={btb_lookups} \
         bp.bhit={btb_hits} bp.rres={returns_resolved} bp.rmis={returns_mispredicted} \
         bp.ires={indirects_resolved} bp.imis={indirects_mispredicted} \
         tr.dc={traffic_demand_correct} tr.dw={traffic_demand_wrong} \
         tr.pf={traffic_prefetch} tr.tpf={traffic_target_prefetch} \
         pf.hits={prefetch_hits} class={}",
        policy.short_name(),
        u8::from(classification.is_some()),
    );
    if let Some(MissClass {
        both_miss,
        spec_pollute,
        spec_prefetch,
        wrong_path,
        correct_accesses,
    }) = classification
    {
        let _ = write!(
            rec.0,
            " cl.bm={both_miss} cl.spo={spec_pollute} cl.spr={spec_prefetch} \
             cl.wp={wrong_path} cl.acc={correct_accesses}"
        );
    }
    rec
}

/// Parses [`encode_result`] tokens back into a [`SimResult`]; fails on
/// any malformed token, unknown or repeated key, or missing field.
pub fn decode_result(s: &str) -> Result<SimResult, SpecfetchError> {
    let mut fields = Fields::parse(s)?;
    let result = take_result(&mut fields)?;
    fields.finish()?;
    Ok(result)
}

/// Takes every field [`put_result`] wrote, in the order it wrote them.
pub(crate) fn take_result(f: &mut Fields<'_>) -> Result<SimResult, SpecfetchError> {
    let policy = f.take("policy")?;
    let policy =
        FetchPolicy::parse(policy).ok_or_else(|| bad(format!("unknown policy {policy:?}")))?;
    let mut u = |key: &str| f.take_u64(key);
    Ok(SimResult {
        policy,
        correct_instrs: u("instrs")?,
        cycles: u("cycles")?,
        issue_width: u32::try_from(u("width")?).map_err(|_| bad("issue width overflows".into()))?,
        lost: IspiBreakdown {
            branch_full: u("lost.bfull")?,
            branch: u("lost.branch")?,
            force_resolve: u("lost.fres")?,
            rt_icache: u("lost.rti")?,
            wrong_icache: u("lost.wi")?,
            bus: u("lost.bus")?,
        },
        pht_mispredict_slots: u("pht.slots")?,
        btb_misfetch_slots: u("btbmf.slots")?,
        btb_mispredict_slots: u("btbmp.slots")?,
        misfetches: u("misfetches")?,
        mispredicts: u("mispredicts")?,
        target_mispredicts: u("tgt.mispredicts")?,
        cache_correct: CacheStats {
            accesses: u("cc.acc")?,
            misses: u("cc.miss")?,
            fills: u("cc.fill")?,
        },
        cache_wrong: CacheStats {
            accesses: u("cw.acc")?,
            misses: u("cw.miss")?,
            fills: u("cw.fill")?,
        },
        bpred: BpredStats {
            cond_resolved: u("bp.cres")?,
            cond_mispredicted: u("bp.cmis")?,
            btb_lookups: u("bp.blook")?,
            btb_hits: u("bp.bhit")?,
            returns_resolved: u("bp.rres")?,
            returns_mispredicted: u("bp.rmis")?,
            indirects_resolved: u("bp.ires")?,
            indirects_mispredicted: u("bp.imis")?,
        },
        traffic_demand_correct: u("tr.dc")?,
        traffic_demand_wrong: u("tr.dw")?,
        traffic_prefetch: u("tr.pf")?,
        traffic_target_prefetch: u("tr.tpf")?,
        prefetch_hits: u("pf.hits")?,
        classification: match u("class")? {
            0 => None,
            1 => Some(MissClass {
                both_miss: u("cl.bm")?,
                spec_pollute: u("cl.spo")?,
                spec_prefetch: u("cl.spr")?,
                wrong_path: u("cl.wp")?,
                correct_accesses: u("cl.acc")?,
            }),
            other => return Err(bad(format!("bad class flag {other}"))),
        },
    })
}

/// Escapes a string for embedding in a JSON double-quoted literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts unsigned-integer field `key` from one flat JSON object line.
/// No crate of this workspace reads JSON with it: it stays for the
/// benchmark ledger's `--serve` client, which reads the job id of a
/// `POST /jobs` reply.
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    let end = rest.find([',', '}', ' ']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_core::{SimConfig, Simulator};
    use specfetch_synth::suite::Benchmark;
    use specfetch_trace::PathSource;

    fn real_result(classify: bool) -> SimResult {
        let b = Benchmark::by_name("li").unwrap();
        let mut cfg = SimConfig::paper_baseline();
        cfg.classify = classify;
        cfg.prefetch = classify; // vary more fields through the codec
        let w = b.workload().unwrap();
        Simulator::new(cfg).run(w.executor(b.path_seed()).take_instrs(5_000))
    }

    #[test]
    fn result_round_trips_with_and_without_classification() {
        for classify in [false, true] {
            let r = real_result(classify);
            assert_eq!(r.classification.is_some(), classify);
            let line = encode_result(&r);
            let back = decode_result(&line).unwrap();
            assert_eq!(back, r, "round trip diverged for {line:?}");
        }
    }

    #[test]
    fn decode_rejects_missing_and_unknown_keys() {
        let line = encode_result(&real_result(false));
        // Drop one field.
        let missing: String = line
            .split_ascii_whitespace()
            .filter(|t| !t.starts_with("cycles="))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(decode_result(&missing).is_err());
        // Add an unknown field.
        let unknown = format!("{line} bogus=7");
        assert!(decode_result(&unknown).is_err());
        // Duplicate a field.
        let dup = format!("{line} cycles=1");
        assert!(decode_result(&dup).is_err());
        // Classification keys without class=1 are unknown.
        let stray = format!("{line} cl.bm=1");
        assert!(decode_result(&stray).is_err());
    }

    #[test]
    fn decode_rejects_malformed_terms() {
        for bad in ["x", "", "policy=Zap", "cycles=abc", "class=7"] {
            assert!(decode_result(bad).is_err(), "{bad:?} unexpectedly parsed");
        }
    }

    /// Reads a one-field record of kind `t` back: its `v` string.
    fn read_v(line: &str) -> Result<String, SpecfetchError> {
        let mut f = Fields::unseal(line)?;
        f.take("kind")?;
        let v = f.take_str("v")?;
        f.finish()?;
        Ok(v)
    }

    /// One table for the record codec: hostile strings round-trip, and
    /// every kind of damage is rejected.
    #[test]
    fn records_round_trip_hostile_strings_and_reject_damage() {
        let hostile = [
            "plain",
            "a space, = and | in one",
            "back\\slash",
            "newline\nCR\rtab\t",
            "control\u{1}char",
            "unicode ☃ snowman, ünïcödé",
            "",
            "sum=0123456789abcdef",
        ];
        for s in hostile {
            let line = Record::new("t").str("v", s).seal();
            assert_eq!(line.matches('\n').count(), 1, "one line for {s:?}: {line:?}");
            assert!(line.trim_end().split(' ').all(|t| t.contains('=')), "{line:?}");
            assert_eq!(read_v(&line).unwrap(), s, "via {line:?}");
            assert_eq!(read_v(line.trim_end()).unwrap(), s, "without its newline");
        }

        let good = Record::new("t").str("v", "x y").seal();
        let body = good.rsplit_once(" sum=").unwrap().0;
        let reseal = |body: &str| format!("{body} sum={:016x}\n", fnv1a(body.as_bytes()));
        let mut flipped = good.clone().into_bytes();
        flipped[9] ^= 1;
        let rejected = [
            ("flipped byte", String::from_utf8(flipped).unwrap()),
            ("missing checksum", format!("{body}\n")),
            ("wrong checksum", format!("{body} sum=0000000000000000\n")),
            ("duplicate key", reseal(&format!("{body} v=z"))),
            ("unknown key", reseal(&format!("{body} w=z"))),
            ("missing key", reseal("kind=t")),
            ("bare token", reseal(&format!("{body} w"))),
            ("bad escape", reseal("kind=t v=a\\q")),
            ("raw control", reseal("kind=t v=a\u{1}")),
        ];
        for (what, line) in rejected {
            assert!(read_v(&line).is_err(), "{what} accepted: {line:?}");
        }
    }

    #[test]
    fn integers_are_strict_and_keys_are_found_in_any_order() {
        let line =
            Record::new("t").u64("a", 1).u64("b", u64::MAX).str("c", "-5").str("d", "+5").seal();
        let mut f = Fields::unseal(&line).unwrap();
        assert_eq!(f.take_u64("b").unwrap(), u64::MAX);
        assert_eq!(f.take("kind").unwrap(), "t");
        assert!(f.take_u64("c").is_err(), "negative integers are malformed");
        assert!(f.take_u64("d").is_err(), "so are signed ones");
        assert_eq!(f.take_u64("a").unwrap(), 1);
        assert!(f.take("a").is_err(), "a key is taken once");
        f.finish().unwrap();
    }
}
