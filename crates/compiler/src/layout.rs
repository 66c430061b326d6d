//! The compiler post-pass: XMT assembly-layout verification and repair
//! (paper §IV-B, Fig. 9).
//!
//! XMT restricts the layout of spawn-block code: because the hardware
//! *broadcasts* the instructions between `spawn` and `join` to the TCUs,
//! every instruction a virtual thread may execute must sit inside that
//! window — TCUs have no access to instructions that were not broadcast.
//! A layout-optimizing code generator (GCC in the paper, our cold-block
//! sinking here) may nevertheless place a basic block that logically
//! belongs to the spawn block *after* the `join` (Fig. 9a). This pass,
//! the counterpart of the paper's SableCC post-pass, finds such misplaced
//! blocks and relocates them back between `spawn` and `join` (Fig. 9b),
//! then verifies the XMT semantic rules.

use xmt_isa::{AsmItem, AsmProgram, Instr, Target};

/// Repair misplaced basic blocks. Returns the number of blocks moved.
pub fn fix_layout(asm: &mut AsmProgram) -> Result<u32, String> {
    Layout::run(asm, |l| l.fix())
}

/// [`fix_layout`] then [`verify`], on one label index.
pub(crate) fn fix_and_verify(asm: &mut AsmProgram) -> Result<u32, String> {
    Layout::run(asm, |l| {
        let fixes = l.fix()?;
        l.verify()?;
        Ok(fixes)
    })
}

/// Verify XMT assembly semantics:
///
/// 1. spawn/join are balanced and non-nested, and no label is defined
///    twice;
/// 2. every branch inside a spawn window targets a label inside it;
/// 3. no `spawn`, `halt`, `jal`, `jr`, or `jalr` inside a window
///    (serial-only / call instructions cannot run on TCUs);
/// 4. `chkid` appears only inside windows;
/// 5. no branch from serial code targets the inside of a window.
pub fn verify(asm: &AsmProgram) -> Result<(), String> {
    Layout::new(&asm.items)?.verify()
}

/// A spawn…join window: the item indices of its `spawn` and `join`.
type Window = (u32, u32);

/// The post-pass's view of a program: the order its items will end up
/// in, and one label index, built once. Items are not moved while blocks
/// are relocated — only their positions are — and the final order is
/// applied in one permutation at the end.
struct Layout<'a> {
    items: &'a [AsmItem],
    /// `order[k]` = index in `items` of the item at position `k`.
    order: Vec<u32>,
    /// `pos[i]` = position of `items[i]` (the inverse of `order`).
    pos: Vec<u32>,
    /// (label, index in `items` of its definition), sorted by label.
    labels: Vec<(&'a str, u32)>,
    /// The windows in program order. A relocated block holds neither a
    /// `spawn` nor a `join`, so moves never reorder them.
    windows: Vec<Window>,
}

impl<'a> Layout<'a> {
    fn new(items: &'a [AsmItem]) -> Result<Self, String> {
        let mut windows = Vec::new();
        let mut open: Option<usize> = None;
        for (k, it) in items.iter().enumerate() {
            match it {
                AsmItem::Instr(Instr::Spawn { .. }) => {
                    if open.is_some() {
                        return Err(format!("nested spawn at item {k}"));
                    }
                    open = Some(k);
                }
                AsmItem::Instr(Instr::Join) => {
                    let Some(s) = open.take() else {
                        return Err(format!("join without spawn at item {k}"));
                    };
                    windows.push((s as u32, k as u32));
                }
                _ => {}
            }
        }
        if open.is_some() {
            return Err("spawn never joined".into());
        }
        let mut labels: Vec<(&str, u32)> = items
            .iter()
            .enumerate()
            .filter_map(|(k, it)| match it {
                AsmItem::Label(l) => Some((l.as_str(), k as u32)),
                _ => None,
            })
            .collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate label `{}`", w[0].0));
        }
        let order: Vec<u32> = (0..items.len() as u32).collect();
        Ok(Layout { items, pos: order.clone(), order, labels, windows })
    }

    /// Run `pass` on the layout of `asm`, then put the items in the order
    /// it left (also when it fails part-way, as the moves so far stand).
    fn run<T>(
        asm: &mut AsmProgram,
        pass: impl FnOnce(&mut Layout) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut layout = Layout::new(&asm.items)?;
        let result = pass(&mut layout);
        let order = layout.order;
        permute(&mut asm.items, order);
        result
    }

    fn at(&self, k: usize) -> &'a AsmItem {
        &self.items[self.order[k] as usize]
    }

    /// The window as positions (`spawn`, `join`).
    fn span(&self, (s, j): Window) -> (usize, usize) {
        (self.pos[s as usize] as usize, self.pos[j as usize] as usize)
    }

    fn label_pos(&self, l: &str) -> Option<usize> {
        let k = self.labels.binary_search_by(|&(m, _)| m.cmp(l)).ok()?;
        Some(self.pos[self.labels[k].1 as usize] as usize)
    }

    /// Is position `k` strictly inside a window?
    fn inside(&self, k: usize) -> bool {
        // Windows are disjoint and in order: only the last one that opens
        // before `k` can hold it.
        let w = self.windows.partition_point(|&w| self.span(w).0 < k);
        w > 0 && k < self.span(self.windows[w - 1]).1
    }

    fn fix(&mut self) -> Result<u32, String> {
        let mut fixes = 0;
        // Iterate to a fixed point: moving one block can expose another
        // (a misplaced block may branch to a second misplaced block).
        loop {
            let Some((window, target_label)) = self.find_misplaced()? else {
                return Ok(fixes);
            };
            self.move_block_into_window(window, target_label)?;
            fixes += 1;
            if fixes > 10_000 {
                return Err("layout fix did not converge".into());
            }
        }
    }

    /// Find one branch inside a window whose target label lies outside it.
    fn find_misplaced(&self) -> Result<Option<(Window, &'a str)>, String> {
        for &w in &self.windows {
            let (spawn, join) = self.span(w);
            for k in spawn + 1..join {
                let AsmItem::Instr(ins) = self.at(k) else { continue };
                if let Some(Target::Label(l)) = ins.target() {
                    let Some(pos) = self.label_pos(l) else {
                        return Err(format!("undefined label `{l}` in spawn block"));
                    };
                    if pos <= spawn || pos >= join {
                        return Ok(Some((w, l)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Move the block starting at `label` to just before the window's join.
    fn move_block_into_window(&mut self, w: Window, label: &str) -> Result<(), String> {
        let Some(start) = self.label_pos(label) else {
            return Err(format!("undefined label `{label}`: no block to relocate"));
        };

        // Delimit the block: from its label through its first unconditional
        // transfer. Hitting another label or a spawn/join first means the
        // block falls through — it cannot be moved safely.
        let mut end = None;
        for k in start + 1..self.order.len() {
            match self.at(k) {
                AsmItem::Label(_) => break,
                AsmItem::Comment(_) => {}
                AsmItem::Instr(Instr::Spawn { .. }) | AsmItem::Instr(Instr::Join) => break,
                AsmItem::Instr(i) => {
                    if i.is_unconditional_jump() {
                        end = Some(k + 1);
                        break;
                    }
                }
            }
        }
        let Some(end) = end else {
            return Err(format!(
                "misplaced block `{label}` does not end in an unconditional jump; \
                 cannot relocate it into the spawn block"
            ));
        };

        // The block must not be entered by fallthrough where it is now.
        if start > 0 {
            let mut k = start - 1;
            loop {
                match self.at(k) {
                    AsmItem::Comment(_) | AsmItem::Label(_) if k > 0 => k -= 1,
                    AsmItem::Instr(i) if i.is_unconditional_jump() => break,
                    AsmItem::Instr(Instr::Join) => break, // after a join is fine
                    _ => {
                        return Err(format!(
                            "misplaced block `{label}` is reachable by fallthrough; \
                             cannot relocate"
                        ))
                    }
                }
            }
        }

        // Splice the block in front of the join in one rotation (Fig. 9b:
        // the preceding code keeps control flow because the block both
        // starts at a label and ends with a jump).
        let len = end - start;
        let join = self.span(w).1;
        let moved = if start < join {
            self.order[start..join].rotate_left(len);
            start..join
        } else {
            self.order[join..end].rotate_right(len);
            join..end
        };
        for k in moved {
            self.pos[self.order[k] as usize] = k as u32;
        }
        debug_assert!(matches!(self.at(self.span(w).1), AsmItem::Instr(Instr::Join)));
        Ok(())
    }

    fn verify(&self) -> Result<(), String> {
        for k in 0..self.order.len() {
            let AsmItem::Instr(ins) = self.at(k) else { continue };
            let in_window = self.inside(k);
            match ins {
                Instr::Halt | Instr::Jal { .. } | Instr::Jr { .. } | Instr::Jalr { .. }
                    if in_window =>
                {
                    return Err(format!("serial-only instruction `{ins}` inside spawn block"));
                }
                Instr::Grput { .. } if in_window => {
                    return Err("`grput` inside spawn block (master-only)".into());
                }
                Instr::Chkid { .. } if !in_window => {
                    return Err("`chkid` outside a spawn block".into());
                }
                _ => {}
            }
            if let Some(Target::Label(l)) = ins.target() {
                let Some(pos) = self.label_pos(l) else {
                    return Err(format!("undefined label `{l}`"));
                };
                let target_in = self.inside(pos);
                if in_window && !target_in {
                    return Err(format!(
                        "branch to `{l}` escapes the spawn block (instructions outside \
                         the spawn…join window are not broadcast to the TCUs)"
                    ));
                }
                if !in_window && target_in {
                    return Err(format!("serial branch to `{l}` jumps into a spawn block"));
                }
            }
        }
        Ok(())
    }
}

/// Reorder `items` so that position `k` holds the old `items[order[k]]`,
/// following the permutation's cycles with swaps.
fn permute(items: &mut [AsmItem], mut order: Vec<u32>) {
    for start in 0..order.len() {
        let mut k = start;
        while order[k] as usize != start {
            let next = order[k] as usize;
            items.swap(k, next);
            order[k] = k as u32;
            k = next;
        }
        order[k] = k as u32;
    }
}

/// Count distinct spawn blocks (for diagnostics/tests).
pub fn spawn_count(asm: &AsmProgram) -> usize {
    asm.instrs()
        .filter(|i| matches!(i, Instr::Spawn { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::asm::parse;

    /// Paper Fig. 9a: BB2 belongs to the spawn block but sits after the
    /// return.
    const FIG9A: &str = r"
outl_sp1:
    spawn $a0, $a1
bb1:
    li   $t0, 1
    ps   $t0, gr0
    chkid $t0
    bne  $t0, $zero, bb2
    j    bb1
    join
    jr   $ra
bb2:
    addi $t1, $t1, 1
    j    bb1
";

    #[test]
    fn fig9_block_pulled_back_inside() {
        let mut asm = parse(FIG9A).unwrap();
        assert!(verify(&asm).is_err(), "Fig 9a layout must fail verification");
        let fixes = fix_layout(&mut asm).unwrap();
        assert_eq!(fixes, 1);
        verify(&asm).expect("Fig 9b layout verifies");
        // bb2 now sits before the join.
        let items = &asm.items;
        let join_pos = items
            .iter()
            .position(|i| matches!(i, AsmItem::Instr(Instr::Join)))
            .unwrap();
        let bb2_pos = items
            .iter()
            .position(|i| matches!(i, AsmItem::Label(l) if l == "bb2"))
            .unwrap();
        assert!(bb2_pos < join_pos);
        // Program still links (spawn/join preserved).
        asm.link(xmt_isa::MemoryMap::new()).unwrap();
    }

    #[test]
    fn chained_misplaced_blocks_converge() {
        let src = r"
f:
    spawn $a0, $a1
top:
    li $t0, 1
    ps $t0, gr0
    chkid $t0
    bne $t0, $zero, far1
    j top
    join
    jr $ra
far1:
    bne $t1, $zero, far2
    j top
far2:
    addi $t2, $t2, 1
    j top
";
        let mut asm = parse(src).unwrap();
        let fixes = fix_layout(&mut asm).unwrap();
        assert_eq!(fixes, 2);
        verify(&asm).unwrap();
    }

    #[test]
    fn verify_rejects_serial_only_in_window() {
        let src = "main:\n spawn $a0, $a1\n halt\n join\n halt\n";
        let asm = parse(src).unwrap();
        assert!(verify(&asm).unwrap_err().contains("halt"));
        let src = "main:\n spawn $a0, $a1\n jal main\n join\n halt\n";
        let asm = parse(src).unwrap();
        assert!(verify(&asm).unwrap_err().contains("jal"));
    }

    #[test]
    fn verify_rejects_chkid_outside() {
        let asm = parse("main:\n chkid $t0\n halt\n").unwrap();
        assert!(verify(&asm).unwrap_err().contains("chkid"));
    }

    #[test]
    fn verify_rejects_serial_jump_into_window() {
        let src = r"
main:
    j inside
    spawn $a0, $a1
inside:
    nop
    j inside
    join
    halt
";
        let asm = parse(src).unwrap();
        assert!(verify(&asm).unwrap_err().contains("jumps into"));
    }

    #[test]
    fn fallthrough_block_cannot_move() {
        // The out-of-window target is reachable by fallthrough: error.
        let src = r"
f:
    spawn $a0, $a1
in:
    chkid $t0
    bne $t0, $zero, out
    j in
    join
    addi $t5, $t5, 1
out:
    j in
";
        let mut asm = parse(src).unwrap();
        assert!(fix_layout(&mut asm).is_err());
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let src = "main:\n j main\nmain:\n halt\n";
        let mut asm = parse(src).unwrap();
        assert!(verify(&asm).unwrap_err().contains("duplicate label `main`"));
        assert!(fix_layout(&mut asm).is_err());
    }

    #[test]
    fn relocating_an_unknown_label_is_an_error() {
        let asm = parse(FIG9A).unwrap();
        let mut layout = Layout::new(&asm.items).unwrap();
        let w = layout.windows[0];
        let err = layout.move_block_into_window(w, "nowhere").unwrap_err();
        assert!(err.contains("undefined label `nowhere`"), "{err}");
    }

    #[test]
    fn clean_program_needs_no_fixes() {
        let src = r"
main:
    li $a0, 0
    li $a1, 7
    spawn $a0, $a1
loop:
    li $t0, 1
    ps $t0, gr0
    chkid $t0
    j loop
    join
    halt
";
        let mut asm = parse(src).unwrap();
        assert_eq!(fix_layout(&mut asm).unwrap(), 0);
        verify(&asm).unwrap();
    }
}
