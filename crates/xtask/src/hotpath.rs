//! Shape check of the hot paths.
//!
//! Builds the `hotpath` example (`examples/hotpath.rs`), whose
//! `hotpath_get` / `hotpath_insert` / `hotpath_remove` /
//! `hotpath_get_many` symbols are `ShortcutIndex::{get, insert, remove,
//! get_many_into}` inlined whole into one out-of-line function each,
//! whose `hotpath_eh_insert` is the plain-EH arm's insert, and
//! which links in `<ShortcutIndex as Index>::get` — the function the
//! benchmark's point workloads call, found by a fragment of its mangled
//! name —, disassembles them with `objdump` and holds what a timer
//! cannot: that a symbol carries **no `lock`-prefixed
//! instruction** (every RMW exit — shared-stripe pins, the read lock, the
//! first-use slot claim, the relay's queue lock — must stay out of line),
//! that it has **not grown** more than a quarter past the committed
//! budget (a second probe inlined into `get`, which is what its cold
//! exits used to cost, roughly doubles it), that its **frame** is within
//! budget, and that **every `call` goes where it may**: the write paths
//! of both arms run EH's fast path inline and leave only through cold
//! exits — a wrapper layer that comes back, or a fast path LLVM left out
//! of line, shows as a call to a function that is not on the list.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One checked symbol of the fixture.
struct Checked {
    /// The symbol's name, or a fragment of exactly one mangled name.
    symbol: &'static str,
    /// Size when last reviewed (x86-64, `--release`, the pinned
    /// toolchain). Re-measure and move it, with the reason, when the path
    /// changes on purpose.
    budget_bytes: usize,
    /// Largest `sub rsp` the symbol may open with, in bytes.
    frame_bytes: usize,
    /// Fragments of the (mangled) names a `call` may go to, besides
    /// [`PANICS`]; `None` does not look (the read path's calls are all
    /// `#[cold]` by construction of its `match`es, and its budget catches
    /// one that is inlined).
    callees: Option<&'static [&'static str]>,
}

/// A slice index out of bounds and `_Unwind_Resume`: cold by nature, and
/// allowed wherever callees are checked.
const PANICS: [&str; 2] = ["panic_bounds_check", "_Unwind_Resume"];

const CHECKED: [Checked; 6] = [
    // Route to the shard's read line, pin on the exclusive stripe, the
    // admission word (the one load of shard state: the served directory),
    // slot, over-depth test, probe, tally, unpin; every other exit is one
    // call to `ShortcutIndex::get_slow`. Measured 811 B (70 instructions
    // on the unsharded hit), no frame.
    Checked {
        symbol: "hotpath_get",
        budget_bytes: 811,
        frame_bytes: 0,
        callees: None,
    },
    // The same lookup as `<ShortcutIndex as Index>::get`, out of line in
    // `shortcut-exhash`: what `point_*` time. Measured 817 B, no frame.
    // Its callees are listed: a hit path whose tally or probe went out of
    // line (a closure LLVM declined to inline measured 0x1e9 B and cost
    // `point_hot` a fifth of its `speedup_vs_eh`) calls something else.
    Checked {
        symbol: "ShortcutIndex$u20$as$u20$shortcut_exhash..traits..Index$GT$3get17h",
        budget_bytes: 817,
        frame_bytes: 0,
        callees: Some(&["ShortcutIndex8get_slow", "BucketRef8get_slow"]),
    },
    // Route and EH's insert fast path inline (probe, store, count): the
    // plain-EH arm's body and nothing else. A full bucket leaves through
    // `ShortcutEh::insert_slow` (EH's split, then the hooks), a probe past
    // its first slots through `BucketRef::probe_slow`. Measured 976 B,
    // frame 0x18 — the EH arm's: no `Result` or event-buffer look of the
    // facade's own is left on the fast path (the `Result` passed on
    // through a stack temporary cost ≈ 30 ns an insert on `grow_churn`).
    Checked {
        symbol: "hotpath_insert",
        budget_bytes: 976,
        frame_bytes: 0x18,
        callees: Some(&["ShortcutEh11insert_slow", "BucketRef10probe_slow"]),
    },
    // The plain-EH arm's insert: the same fast path without routing or
    // event buffer. Held so that neither arm calls the fast path out of
    // line — with plain `#[inline]` LLVM kept local copies of it, one arm
    // called one, and `speedup_vs_eh` moved by that alone. Measured 864 B,
    // frame 0x18.
    Checked {
        symbol: "hotpath_eh_insert",
        budget_bytes: 864,
        frame_bytes: 0x18,
        callees: Some(&["ExtendibleHash11insert_slow", "BucketRef10probe_slow"]),
    },
    // Route and EH's remove, inline whole. Measured 919 B, no frame.
    Checked {
        symbol: "hotpath_remove",
        budget_bytes: 919,
        frame_bytes: 0,
        callees: Some(&["BucketRef10probe_slow"]),
    },
    // Per window: the shards it touches, their read sections entered in
    // ascending order (pin and admission word; `Shard::enter_locked` out of
    // line), the keys answered in batch order under one prefetch pipeline
    // — two copies of the walk, the unsharded one reading its one section
    // as a constant — and the sections left (`drop_in_place::<Held<..>>`;
    // a locked section's unlock is out of line there). Measured 4756 B;
    // frame 0x49b8, probed a page at a time: room for a read section of
    // every shard `MAX_SHARD_BITS` allows, of which a window initializes
    // the ones it touches.
    Checked {
        symbol: "hotpath_get_many",
        budget_bytes: 4756,
        frame_bytes: 0x49b8,
        callees: Some(&[
            "pin_slow",
            "Shard12enter_locked",
            "unpin_shared",
            "tally_shared",
            "ShortcutEh15get_traditional",
            "BucketRef8get_slow",
            "shard..Held",
            "do_reserve_and_handle",
            "panic_in_cleanup",
        ]),
    },
];

/// Slack over a budget for compiler versions and layout noise: just under
/// the 96 bytes (10.4 %) the per-`get` seqlock round trip used to cost, so
/// it cannot come back unnoticed.
const SLACK_PERCENT: usize = 10;

/// Where a `call` goes, as the listing writes it.
#[derive(Debug, PartialEq, Eq)]
pub enum Callee {
    /// `call 209e0 <name>`.
    Named(String),
    /// `call QWORD PTR [rip+0x…]  # 89ac0 <…>`: through the GOT slot at
    /// this address, which a `R_X86_64_RELATIVE` relocation fills.
    Slot(u64),
}

/// What the disassembly of one symbol shows.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Shape {
    pub instructions: usize,
    pub lock_prefixed: usize,
    /// Every `call`, and every `jmp` out of the symbol (a tail call).
    pub calls: Vec<Callee>,
    /// The prologue's `sub rsp, N`: the first one, or — a frame past a
    /// page, whose pages the prologue probes — the sum of its steps (and
    /// of a probing loop's `sub r11, N` bound).
    pub frame_bytes: usize,
}

fn hex(word: &str) -> Option<u64> {
    u64::from_str_radix(word.trim_start_matches("0x"), 16).ok()
}

/// Whether a `jmp` leaves its symbol — through a GOT slot (the `# slot`
/// note) or to a bare `<name>`; one that stays goes to `<symbol+0x…>`.
fn leaves(insn: &str) -> bool {
    let stays = |(_, target): (&str, &str)| target.contains("+0x");
    insn.contains('#') || insn.split_once('<').is_some_and(|jump| !stays(jump))
}

/// Read the instruction lines of an `objdump -d --no-show-raw-insn -M
/// intel` listing (`  addr:\tmnemonic operands`).
pub fn shape_of(listing: &str) -> Shape {
    let mut shape = Shape::default();
    // `Some(probed)` while the prologue's frame is being opened: `probed`
    // when its last `sub rsp` was followed by a probe store, so that more
    // steps may follow.
    let mut opening: Option<bool> = Some(false);
    for line in listing.lines() {
        let Some((addr, insn)) = line.split_once(":\t") else {
            continue;
        };
        if addr.trim().is_empty() || !addr.trim().chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        let mut words = insn.split_whitespace();
        let mnemonic = words.clone().next();
        if opening == Some(true) && mnemonic == Some("mov") && insn.contains("[rsp],0x0") {
            opening = Some(false);
        } else if opening == Some(true) && mnemonic != Some("sub") {
            opening = None;
        }
        match words.next() {
            Some("lock") => shape.lock_prefixed += 1,
            Some(m) if m.starts_with("call") || (m == "jmp" && leaves(insn)) => {
                let slot = insn.split_once('#').map(|(_, slot)| slot);
                shape.calls.push(match slot {
                    Some(slot) => {
                        Callee::Slot(slot.split_whitespace().next().and_then(hex).unwrap_or(0))
                    }
                    None => Callee::Named(insn.rsplit('<').next().unwrap_or("").to_string()),
                });
            }
            Some("sub") if opening.is_some() => {
                let ops = words.next().unwrap_or("");
                if let Some(bytes) = ops.strip_prefix("rsp,").or(ops.strip_prefix("r11,")) {
                    shape.frame_bytes += hex(bytes).unwrap_or(0) as usize;
                    opening = Some(ops.starts_with("rsp,"));
                }
            }
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

/// The name in an `objdump -t` symbol table that `symbol` stands for:
/// itself, or else the one name containing it.
pub fn resolve<'a>(symbols: &'a str, symbol: &str) -> Result<&'a str, String> {
    let names = || {
        symbols
            .lines()
            .filter_map(|line| line.split_whitespace().next_back())
    };
    if let Some(name) = names().find(|&name| name == symbol) {
        return Ok(name);
    }
    let mut matching: Vec<&str> = names().filter(|name| name.contains(symbol)).collect();
    matching.sort_unstable();
    matching.dedup();
    match matching[..] {
        [name] => Ok(name),
        [] => Err(format!("no symbol `{symbol}`")),
        _ => Err(format!("`{symbol}` names {} symbols", matching.len())),
    }
}

/// `address -> name` of an `objdump -t` symbol table.
fn names_of(symbols: &str) -> HashMap<u64, &str> {
    symbols
        .lines()
        .filter_map(|line| {
            let address = hex(line.split_whitespace().next()?)?;
            Some((address, line.split_whitespace().next_back()?))
        })
        .collect()
}

/// `GOT slot -> target address` of an `objdump -R` relocation table
/// (`slot R_X86_64_RELATIVE *ABS*+0xtarget`).
fn slots_of(relocations: &str) -> HashMap<u64, u64> {
    relocations
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let slot = hex(fields.next()?)?;
            let target = fields.nth(1)?.strip_prefix("*ABS*+")?;
            Some((slot, hex(target)?))
        })
        .collect()
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

/// Hold one symbol to its row of [`CHECKED`]. `Ok` is its report line.
fn check(
    checked: &Checked,
    binary: &Path,
    symbols: &str,
    names: &HashMap<u64, &str>,
    slots: &HashMap<u64, u64>,
) -> Result<String, String> {
    let Checked {
        symbol,
        budget_bytes,
        frame_bytes,
        callees,
    } = checked;
    let symbol = resolve(symbols, symbol).map_err(|e| format!("{e} in {}", binary.display()))?;
    let listing = output_of(
        Command::new("objdump")
            .args(["-d", "--no-show-raw-insn", "-M", "intel"])
            .arg(format!("--disassemble={symbol}"))
            .arg(binary),
    )?;
    let shape = shape_of(&listing);
    let size = size_of(symbols, symbol)
        .filter(|_| shape.instructions > 0)
        .ok_or(format!("no symbol `{symbol}` in {}", binary.display()))?;
    let report = format!(
        "hotpath: `{symbol}` is {size} bytes (budget {budget_bytes} + {SLACK_PERCENT} %), \
         {} instructions, {} lock-prefixed, {} calls and tail calls, frame {:#x}",
        shape.instructions,
        shape.lock_prefixed,
        shape.calls.len(),
        shape.frame_bytes
    );
    if shape.lock_prefixed > 0 {
        return Err(format!(
            "{report}\nhotpath: a `lock`-prefixed instruction is inlined into `{symbol}` — \
             move the RMW exit out of line (#[cold] #[inline(never)])"
        ));
    }
    if size * 100 > budget_bytes * (100 + SLACK_PERCENT) {
        return Err(format!(
            "{report}\nhotpath: `{symbol}` outgrew its budget — look for a cold exit that \
             is inlined again (a second bucket probe roughly doubles `hotpath_get`)"
        ));
    }
    if shape.frame_bytes > *frame_bytes {
        return Err(format!(
            "{report}\nhotpath: `{symbol}` opens a frame beyond its {frame_bytes:#x} bytes — \
             something is passed to a cold exit through memory, or kept alive across one"
        ));
    }
    for callee in &shape.calls {
        let name = match callee {
            Callee::Named(name) => name.as_str(),
            Callee::Slot(slot) => slots
                .get(slot)
                .and_then(|target| names.get(target))
                .copied()
                .unwrap_or("?"),
        };
        let listed = |allowed: &[&str]| allowed.iter().chain(&PANICS).any(|a| name.contains(a));
        if callees.is_some_and(|allowed| !listed(allowed)) {
            return Err(format!(
                "{report}\nhotpath: `{symbol}` calls `{name}`, which is not one of its cold \
                 exits — a wrapper layer, or a fast path out of line, is back"
            ));
        }
    }
    Ok(report)
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
    let symbols = output_of(Command::new("objdump").arg("-t").arg(&binary))?;
    let names = names_of(&symbols);
    let slots = slots_of(&output_of(Command::new("objdump").arg("-R").arg(&binary))?);
    // Every row is checked, and every finding reported: one change can
    // reshape several symbols.
    let (passed, failed): (Vec<_>, Vec<_>) = CHECKED
        .iter()
        .map(|checked| check(checked, &binary, &symbols, &names, &slots))
        .partition(Result::is_ok);
    let lines = |results: Vec<Result<String, String>>| {
        let lines: Vec<String> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| e))
            .collect();
        lines.join("\n")
    };
    if failed.is_empty() {
        Ok(lines(passed))
    } else {
        Err(lines(failed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING: &str = "
target/release/examples/hotpath:     file format elf64-x86-64

Disassembly of section .text:

0000000000021960 <hotpath_get>:
   21960:\tpush   r15
   21961:\tsub    rsp,0x20
   21962:\tlock inc QWORD PTR [rax]
   21966:\tcall   QWORD PTR [rip+0x66217]        # 87f50 <_DYNAMIC+0x3a0>
   21969:\tcall   209e0 <_ZN4core9panicking18panic_bounds_check17h0E>
   2196c:\tjmp    QWORD PTR [rip+0x661bd]        # 87f58 <_DYNAMIC+0x3a8>
   2196d:\tjmp    21972 <hotpath_get+0x12>
   2196f:\tsub    rsp,0x8
   21972:\tret
";

    #[test]
    fn counts_instructions_lock_prefixes_and_calls() {
        assert_eq!(
            shape_of(LISTING),
            Shape {
                instructions: 9,
                lock_prefixed: 1,
                calls: vec![
                    Callee::Slot(0x87f50),
                    Callee::Named("_ZN4core9panicking18panic_bounds_check17h0E>".into()),
                    Callee::Slot(0x87f58),
                ],
                frame_bytes: 0x20,
            }
        );
    }

    /// A frame past a page opens in probed steps, unrolled or as a loop.
    #[test]
    fn sums_a_probed_prologue() {
        let step = "\tsub    rsp,0x1000"; // audit:allow(page-literal): a stack probe's step
        let unrolled = [
            "  10:\tpush   rbx",
            &format!("  11:{step}"),
            "  18:\tmov    QWORD PTR [rsp],0x0",
            "  20:\tsub    rsp,0x998",
            "  27:\tmov    r12,rdx",
            "  2a:\tsub    rsp,0x8",
        ];
        assert_eq!(shape_of(&unrolled.join("\n")).frame_bytes, 0x1998);
        let looped = [
            "  10:\tmov    r11,rsp",
            "  13:\tsub    r11,0x9000",
            &format!("  1a:{step}"),
            "  21:\tmov    QWORD PTR [rsp],0x0",
            "  29:\tcmp    rsp,r11",
            "  2c:\tjne    1a <f+0xa>",
            "  2e:\tsub    rsp,0x178",
            "  35:\tmov    r12,rdx",
        ];
        assert_eq!(shape_of(&looped.join("\n")).frame_bytes, 0xa178);
    }

    #[test]
    fn reads_a_symbol_size_from_the_table() {
        let table = "0000000000021960 g     F .text\t00000000000003fa              hotpath_get\n\
                     0000000000021d60 g     F .text\t0000000000000010              hotpath_get_other\n";
        assert_eq!(size_of(table, "hotpath_get"), Some(0x3fa));
        assert_eq!(size_of(table, "absent"), None);
        assert_eq!(names_of(table)[&0x21d60], "hotpath_get_other");
        assert_eq!(resolve(table, "hotpath_get"), Ok("hotpath_get"));
        assert_eq!(resolve(table, "get_oth"), Ok("hotpath_get_other"));
        assert!(resolve(table, "hotpath").is_err(), "two names contain it");
        assert!(resolve(table, "absent").is_err());
    }

    #[test]
    fn resolves_a_got_slot_through_its_relocation() {
        let relocations = "OFFSET           TYPE              VALUE\n\
                           0000000000087f50 R_X86_64_RELATIVE  *ABS*+0x0000000000021d60\n\
                           0000000000087f58 R_X86_64_GLOB_DAT  free@GLIBC_2.2.5\n";
        assert_eq!(slots_of(relocations), HashMap::from([(0x87f50, 0x21d60)]));
    }
}
