//! Shape check of the single-key read path.
//!
//! Builds the `hotpath` example (`examples/hotpath.rs`), whose
//! `hotpath_get` symbol is `ShortcutIndex::get` inlined whole into one
//! out-of-line function, disassembles that symbol with `objdump` and
//! holds what a timer cannot: that it carries **no `lock`-prefixed
//! instruction** (every RMW exit — shared-stripe pins, the read lock, the
//! first-use slot claim — must stay out of line) and that it has **not
//! grown** more than a quarter past the committed budget (a second probe
//! inlined into it, which is what the cold exits used to cost, roughly
//! doubles it).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The fixture's symbol.
const SYMBOL: &str = "hotpath_get";

/// Size of [`SYMBOL`] when last reviewed (x86-64, `--release`, the pinned
/// toolchain). Re-measure and move it, with the reason, when the read
/// path changes on purpose.
const BUDGET_BYTES: usize = 1024;

/// Slack over [`BUDGET_BYTES`] for compiler versions and layout noise.
const SLACK_PERCENT: usize = 25;

/// What the disassembly of one symbol shows.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Shape {
    pub instructions: usize,
    pub lock_prefixed: usize,
    pub calls: usize,
}

/// Count the instruction lines of an `objdump -d --no-show-raw-insn`
/// listing (`  addr:\tmnemonic operands`).
pub fn shape_of(listing: &str) -> Shape {
    let mut shape = Shape::default();
    for line in listing.lines() {
        let Some((addr, insn)) = line.split_once(":\t") else {
            continue;
        };
        if addr.trim().is_empty() || !addr.trim().chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        let mut words = insn.split_whitespace();
        match words.next() {
            Some("lock") => shape.lock_prefixed += 1,
            // A tail call leaves by `jmp`; only `call` comes back.
            Some(m) if m.starts_with("call") => shape.calls += 1,
            Some(_) => {}
            None => continue,
        }
        shape.instructions += 1;
    }
    shape
}

/// Size in bytes of `symbol` in an `objdump -t` symbol table.
pub fn size_of(symbols: &str, symbol: &str) -> Option<usize> {
    symbols.lines().find_map(|line| {
        let mut fields = line.split_whitespace().rev();
        (fields.next()? == symbol)
            .then(|| usize::from_str_radix(fields.next()?, 16).ok())
            .flatten()
    })
}

fn output_of(cmd: &mut Command) -> Result<String, String> {
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Run the check. `Ok` carries the report line(s); `Err` the finding.
pub fn run(args: &[String]) -> Result<String, String> {
    if !args.is_empty() {
        return Err(format!("unknown hotpath flag `{}`", args[0]));
    }
    if Command::new("objdump").arg("--version").output().is_err() {
        return Ok("hotpath: SKIPPED — no `objdump` on PATH, the shape was not checked".into());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    output_of(
        Command::new(cargo)
            .current_dir(&root)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--example", "hotpath"]),
    )?;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let binary = target.join("release/examples/hotpath");
    let listing = output_of(
        Command::new("objdump")
            .args(["-d", "--no-show-raw-insn", "-M", "intel"])
            .arg(format!("--disassemble={SYMBOL}"))
            .arg(&binary),
    )?;
    let shape = shape_of(&listing);
    let size = size_of(
        &output_of(Command::new("objdump").arg("-t").arg(&binary))?,
        SYMBOL,
    )
    .filter(|_| shape.instructions > 0)
    .ok_or(format!("no symbol `{SYMBOL}` in {}", binary.display()))?;
    let report = format!(
        "hotpath: `{SYMBOL}` is {size} bytes (budget {BUDGET_BYTES} + {SLACK_PERCENT} %), \
         {} instructions, {} lock-prefixed, {} calls (its cold exits)",
        shape.instructions, shape.lock_prefixed, shape.calls
    );
    if shape.lock_prefixed > 0 {
        return Err(format!(
            "{report}\nhotpath: a `lock`-prefixed instruction is inlined into the read path — \
             move the RMW exit out of line (#[cold] #[inline(never)])"
        ));
    }
    if size * 100 > BUDGET_BYTES * (100 + SLACK_PERCENT) {
        return Err(format!(
            "{report}\nhotpath: the read path outgrew its budget — look for a cold exit that \
             is inlined again (a second bucket probe roughly doubles the symbol)"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING: &str = "
target/release/examples/hotpath:     file format elf64-x86-64

Disassembly of section .text:

0000000000021960 <hotpath_get>:
   21960:\tpush   r15
   21962:\tlock inc QWORD PTR [rax]
   21966:\tcall   QWORD PTR [rip+0x66217]        # 87f50 <_DYNAMIC+0x3a0>
   2196c:\tjmp    QWORD PTR [rip+0x661bd]
   21972:\tret
";

    #[test]
    fn counts_instructions_lock_prefixes_and_calls() {
        assert_eq!(
            shape_of(LISTING),
            Shape {
                instructions: 5,
                lock_prefixed: 1,
                calls: 1
            }
        );
    }

    #[test]
    fn reads_a_symbol_size_from_the_table() {
        let table = "0000000000021960 g     F .text\t00000000000003fa              hotpath_get\n\
                     0000000000021d60 g     F .text\t0000000000000010              hotpath_get_other\n";
        assert_eq!(size_of(table, "hotpath_get"), Some(0x3fa));
        assert_eq!(size_of(table, "absent"), None);
    }
}
