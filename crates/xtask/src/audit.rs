//! Unsafe/ordering/page-literal source audit.
//!
//! A dependency-free (no syn, no proc-macro) token walk over the
//! first-party source tree enforcing three policies:
//!
//! 1. **SAFETY comments** — every `unsafe` keyword (block, fn, impl) must
//!    be preceded by a comment containing `SAFETY:` (or a `# Safety` doc
//!    section for unsafe fns) on the same line or on the comment/attribute
//!    block immediately above.
//! 2. **Atomic-ordering allowlist** — every `Ordering::Relaxed` /
//!    `Ordering::SeqCst` token in `crates/{rewire,core,exhash,server}/src`
//!    must be covered by an entry in `ORDERINGS.toml` (repo root) stating
//!    the pairing rationale, with *exact* per-file counts in both
//!    directions: an uncovered ordering fails, and so does a stale
//!    allowlist entry — so any change to ordering-sensitive code forces a
//!    re-review of the rationale.
//! 3. **Page-size literals** — no bare `4096` / `0x1000` outside the slot
//!    layout (`crates/rewire/src/slot.rs`) and `crates/vmsim`; other
//!    meanings of 4096 (e.g. key-batch sizes) carry an explicit
//!    `audit:allow(page-literal)` waiver comment on the same line.
//!
//! The lexer understands line/nested-block comments, string/raw-string/
//! char literals (vs lifetimes), so tokens inside strings or comments are
//! never miscounted as code.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One source line, split into its code part (string/char literal
/// contents masked with spaces) and its comment text.
#[derive(Debug, Default)]
struct Line {
    code: String,
    comment: String,
}

/// Lex `source` into per-line code/comment parts.
fn lex(source: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let chars: Vec<char> = source.chars().collect();
    let mut lines = vec![Line::default()];
    let mut st = State::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == State::LineComment {
                st = State::Normal;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let line = lines.last_mut().unwrap();
        match st {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = State::LineComment;
                    line.comment.push_str("//");
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw (byte) strings: r"..", r#".."#, br#".."#.
                let raw_start = |j: usize| -> Option<(usize, usize)> {
                    // Returns (index after opening quote, hash count).
                    if chars.get(j) != Some(&'r') {
                        return None;
                    }
                    let mut k = j + 1;
                    let mut hashes = 0;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') {
                        Some((k + 1, hashes))
                    } else {
                        None
                    }
                };
                let from = if c == 'b' { i + 1 } else { i };
                if (c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')))
                    && raw_start(from).is_some()
                {
                    let (next, hashes) = raw_start(from).unwrap();
                    line.code.push(' ');
                    st = State::RawStr(hashes);
                    i = next;
                    continue;
                }
                if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
                    line.code.push(' ');
                    st = State::Str;
                    i += if c == 'b' { 2 } else { 1 };
                    continue;
                }
                if c == '\'' {
                    // Lifetime (or loop label) vs char literal: 'ident not
                    // followed by a closing quote is a lifetime.
                    let is_lifetime = chars
                        .get(i + 1)
                        .is_some_and(|n| n.is_alphanumeric() || *n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        line.code.push(c);
                        i += 1;
                        continue;
                    }
                    line.code.push(' ');
                    st = State::Char;
                    i += 1;
                    continue;
                }
                line.code.push(c);
                i += 1;
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                line.comment.push(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    // A string line-continuation escapes the newline; the
                    // line count must still advance.
                    if chars.get(i + 1) == Some(&'\n') {
                        lines.push(Line::default());
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = State::Normal;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let closes = (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#'));
                    if closes {
                        st = State::Normal;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = State::Normal;
                }
                i += 1;
            }
        }
    }
    lines
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of standalone occurrences of `word` in `code`.
fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap());
        let after = code[at + word.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// Does the `unsafe` on line `idx` have a SAFETY comment: on the same
/// line, or on the comment/attribute block immediately above?
fn has_safety_comment(lines: &[Line], idx: usize) -> bool {
    let covered = |l: &Line| l.comment.contains("SAFETY:") || l.comment.contains("# Safety");
    if covered(&lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let code = lines[i].code.trim();
        if code.is_empty() || code.starts_with("#[") || code.starts_with("#![") {
            if covered(&lines[i]) {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

fn unsafe_findings(display: &str, lines: &[Line], out: &mut Vec<String>) -> usize {
    let mut sites = 0;
    for (idx, line) in lines.iter().enumerate() {
        if find_word(&line.code, "unsafe").is_empty() {
            continue;
        }
        sites += 1;
        if !has_safety_comment(lines, idx) {
            out.push(format!(
                "{}:{}: `unsafe` without a preceding `// SAFETY:` comment",
                display,
                idx + 1
            ));
        }
    }
    sites
}

fn count_orderings(lines: &[Line]) -> (usize, usize) {
    let mut relaxed = 0;
    let mut seqcst = 0;
    for line in lines {
        relaxed += find_word(&line.code, "Ordering::Relaxed").len();
        seqcst += find_word(&line.code, "Ordering::SeqCst").len();
    }
    (relaxed, seqcst)
}

const WAIVER: &str = "audit:allow(page-literal)";

fn page_literal_findings(display: &str, lines: &[Line], out: &mut Vec<String>) -> usize {
    let mut waived = 0;
    for (idx, line) in lines.iter().enumerate() {
        let hits = {
            let mut h = find_word(&line.code, "4096");
            // Hex form: find_word's ident-boundary check handles suffixes;
            // a longer hex literal (0x10000) fails the boundary test via
            // its trailing digit.
            h.extend(find_word(&line.code, "0x1000"));
            h
        };
        if hits.is_empty() {
            continue;
        }
        if line.comment.contains(WAIVER) {
            waived += 1;
            continue;
        }
        out.push(format!(
            "{}:{}: bare page-size literal (use PAGE_SIZE_4K, or waive with `// {}: <why this 4096 is not a page size>`)",
            display,
            idx + 1,
            WAIVER
        ));
    }
    waived
}

#[derive(Debug, Default, Clone)]
struct OrdEntry {
    path: String,
    relaxed: usize,
    seqcst: usize,
    rationale: String,
    line: usize,
}

fn unquote(v: &str, line: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("ORDERINGS.toml:{line}: expected a quoted string"))
    }
}

/// Minimal parser for the `[[file]]` array-of-tables schema used by
/// ORDERINGS.toml (no general TOML support needed or wanted).
fn parse_orderings_toml(text: &str) -> Result<Vec<OrdEntry>, String> {
    let mut entries: Vec<OrdEntry> = Vec::new();
    let mut cur: Option<OrdEntry> = None;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[file]]" {
            if let Some(e) = cur.take() {
                entries.push(e);
            }
            cur = Some(OrdEntry {
                line: ln,
                ..OrdEntry::default()
            });
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("ORDERINGS.toml:{ln}: expected `key = value`"));
        };
        let Some(e) = cur.as_mut() else {
            return Err(format!("ORDERINGS.toml:{ln}: key outside a [[file]] table"));
        };
        match k.trim() {
            "path" => e.path = unquote(v, ln)?,
            "rationale" => e.rationale = unquote(v, ln)?,
            "relaxed" => {
                e.relaxed = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("ORDERINGS.toml:{ln}: `relaxed` must be an integer"))?
            }
            "seqcst" => {
                e.seqcst = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("ORDERINGS.toml:{ln}: `seqcst` must be an integer"))?
            }
            other => return Err(format!("ORDERINGS.toml:{ln}: unknown key `{other}`")),
        }
    }
    if let Some(e) = cur.take() {
        entries.push(e);
    }
    for e in &entries {
        if e.path.is_empty() {
            return Err(format!("ORDERINGS.toml:{}: entry without `path`", e.line));
        }
        if e.rationale.trim().is_empty() {
            return Err(format!(
                "ORDERINGS.toml:{}: entry for {} must state a pairing rationale",
                e.line, e.path
            ));
        }
    }
    Ok(entries)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn rel_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the audit. `Ok(summary)` on a clean tree, `Err(findings)` with one
/// line per violation otherwise.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            other => return Err(format!("unknown audit flag `{other}`")),
        }
    }
    let root = root
        .canonicalize()
        .map_err(|e| format!("bad root {}: {e}", root.display()))?;

    // First-party source scope: the facade's src plus every crates/* src.
    let mut files: Vec<PathBuf> = Vec::new();
    walk_rs(&root.join("src"), &mut files);
    walk_rs(&root.join("crates"), &mut files);
    files.retain(|p| {
        let d = rel_display(&root, p);
        // Only library/binary sources: tests/benches/examples hold no
        // production unsafe and their 4096s are workload parameters.
        d.starts_with("src/") || (d.starts_with("crates/") && d.contains("/src/"))
    });

    const ORDERING_SCOPE: [&str; 4] = [
        "crates/rewire/src/",
        "crates/core/src/",
        "crates/exhash/src/",
        "crates/server/src/",
    ];
    // Files where a bare page-size literal is the point.
    const PAGE_LITERAL_OK: [&str; 2] = ["crates/rewire/src/slot.rs", "crates/vmsim/src/"];

    let mut findings: Vec<String> = Vec::new();
    let mut unsafe_sites = 0;
    let mut waived = 0;
    let mut counted: Vec<(String, (usize, usize))> = Vec::new();
    for path in &files {
        let display = rel_display(&root, path);
        let source = fs::read_to_string(path).map_err(|e| format!("read {display}: {e}"))?;
        let lines = lex(&source);
        unsafe_sites += unsafe_findings(&display, &lines, &mut findings);
        if ORDERING_SCOPE.iter().any(|s| display.starts_with(s)) {
            let (r, s) = count_orderings(&lines);
            if r + s > 0 {
                counted.push((display.clone(), (r, s)));
            }
        }
        if !PAGE_LITERAL_OK.iter().any(|s| display.starts_with(s)) {
            waived += page_literal_findings(&display, &lines, &mut findings);
        }
    }

    // Reconcile orderings against the allowlist, both directions.
    let toml_path = root.join("ORDERINGS.toml");
    let entries = match fs::read_to_string(&toml_path) {
        Ok(text) => parse_orderings_toml(&text)?,
        Err(e) => return Err(format!("read ORDERINGS.toml: {e}")),
    };
    for (file, (r, s)) in &counted {
        match entries.iter().find(|e| &e.path == file) {
            None => findings.push(format!(
                "{file}: {r} Ordering::Relaxed + {s} Ordering::SeqCst with no ORDERINGS.toml entry"
            )),
            Some(e) if e.relaxed != *r || e.seqcst != *s => findings.push(format!(
                "{file}: ordering counts changed (code has {r} Relaxed + {s} SeqCst, \
                 allowlist says {} + {}): re-review the pairing rationale and update ORDERINGS.toml",
                e.relaxed, e.seqcst
            )),
            Some(_) => {}
        }
    }
    for e in &entries {
        if !counted.iter().any(|(f, _)| f == &e.path) {
            findings.push(format!(
                "ORDERINGS.toml:{}: stale entry for {} (file has no Relaxed/SeqCst orderings)",
                e.line, e.path
            ));
        }
    }

    if findings.is_empty() {
        let (r, s) = counted
            .iter()
            .fold((0, 0), |(ar, as_), (_, (r, s))| (ar + r, as_ + s));
        let mut summary = String::new();
        let _ = write!(
            summary,
            "audit OK: {} files; {} unsafe sites, all with SAFETY comments; \
             {} Relaxed + {} SeqCst orderings across {} files, all allowlisted; \
             {} page-literal waivers",
            files.len(),
            unsafe_sites,
            r,
            s,
            counted.len(),
            waived
        );
        Ok(summary)
    } else {
        findings.push(format!("audit FAILED: {} finding(s)", findings.len()));
        Err(findings.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_masks_strings_and_comments() {
        let src = r##"
let a = "unsafe 4096 Ordering::Relaxed"; // comment unsafe
let b = r#"unsafe"#;
/* block unsafe
   still comment */
let c = 'x';
let lt: &'static str = "y";
"##;
        let lines = lex(src);
        for l in &lines {
            assert!(
                find_word(&l.code, "unsafe").is_empty(),
                "code: {:?}",
                l.code
            );
            assert!(find_word(&l.code, "4096").is_empty());
        }
        assert!(lines.iter().any(|l| l.comment.contains("comment unsafe")));
        // The lifetime line's code survives masking.
        assert!(lines.iter().any(|l| l.code.contains("&'static str")));
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(find_word("unsafe {", "unsafe").len(), 1);
        assert_eq!(find_word("unsafe_op_in_unsafe_fn", "unsafe").len(), 0);
        assert_eq!(find_word("xunsafe", "unsafe").len(), 0);
        assert_eq!(find_word("14096", "4096").len(), 0);
        assert_eq!(find_word("40960", "4096").len(), 0);
        assert_eq!(find_word("4096usize", "4096").len(), 0); // suffix = ident char
        assert_eq!(find_word("[4096]", "4096").len(), 1);
        assert_eq!(find_word("0x10000", "0x1000").len(), 0);
        assert_eq!(find_word("(0x1000)", "0x1000").len(), 1);
    }

    #[test]
    fn safety_comment_detection() {
        let ok = lex("// SAFETY: fine\nunsafe { x() };\n");
        assert!(has_safety_comment(&ok, 1));
        let ok_attr = lex("// SAFETY: fine\n#[inline]\nunsafe fn f() {}\n");
        assert!(has_safety_comment(&ok_attr, 2));
        let ok_same = lex("unsafe { x() }; // SAFETY: inline\n");
        assert!(has_safety_comment(&ok_same, 0));
        let ok_doc = lex("/// # Safety\n/// caller checks\nunsafe fn f() {}\n");
        assert!(has_safety_comment(&ok_doc, 2));
        let bad = lex("let y = 1;\nunsafe { x() };\n");
        assert!(!has_safety_comment(&bad, 1));
        let bad_far = lex("// SAFETY: stale\nlet y = 1;\nunsafe { x() };\n");
        assert!(!has_safety_comment(&bad_far, 2));
    }

    #[test]
    fn ordering_counting() {
        let lines = lex("a.load(Ordering::Relaxed);\n\
             b.store(1, Ordering::SeqCst); // Ordering::SeqCst in comment\n\
             let s = \"Ordering::Relaxed\";\n\
             c.fetch_add(1, Ordering::Relaxed);\n");
        assert_eq!(count_orderings(&lines), (2, 1));
    }

    #[test]
    fn page_literal_waiver() {
        let lines = lex(
            "let batch = 4096; // audit:allow(page-literal): key batch, not a page\n\
             let page = 4096;\n",
        );
        let mut out = Vec::new();
        let waived = page_literal_findings("f.rs", &lines, &mut out);
        assert_eq!(waived, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("f.rs:2"));
    }

    #[test]
    fn toml_roundtrip_and_validation() {
        let good = "# header\n[[file]]\npath = \"a.rs\"\nrelaxed = 3\nseqcst = 1\nrationale = \"stat counters; = signs ok\"\n";
        let e = parse_orderings_toml(good).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].relaxed, 3);
        assert_eq!(e[0].seqcst, 1);
        assert!(parse_orderings_toml("[[file]]\npath = \"a.rs\"\n").is_err()); // no rationale
        assert!(parse_orderings_toml("path = \"a.rs\"\n").is_err()); // key outside table
        assert!(parse_orderings_toml("[[file]]\nbogus = 1\n").is_err());
    }
}
