//! Property tests driven by the ISA table (`xmt_isa::instr`): every
//! opcode, with random operands, survives print → parse and JSON encode →
//! decode, and whole programs survive print → parse → print fixpoints.
//! This pins the assembler, the disassembler and the checkpoint
//! interchange format (the in-tree `xmt-harness` JSON module) against the
//! instruction model.

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::{FromJson, ToJson};
use xmt_isa::asm;
use xmt_isa::instr::Instr;
use xmt_isa::program::{AsmItem, AsmProgram};

fn any_instr(g: &mut Gen) -> Instr {
    let k = g.usize_in(0, Instr::MNEMONICS.len());
    Instr::arbitrary(k, g)
}

/// `a == b`, with an `fli` immediate compared by its bits (the generator
/// draws every bit pattern, and NaN != NaN).
fn same(a: &Instr, b: &Instr) -> bool {
    match (a, b) {
        (Instr::Fli { fd, imm }, Instr::Fli { fd: fd2, imm: imm2 }) => {
            fd == fd2 && imm.to_bits() == imm2.to_bits()
        }
        _ => a == b,
    }
}

fn same_items(a: &[AsmItem], b: &[AsmItem]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (AsmItem::Instr(x), AsmItem::Instr(y)) => same(x, y),
            (x, y) => x == y,
        })
}

/// One property over the whole table: each case draws an opcode and
/// random operands (immediates over their full range, `f32` over all bit
/// patterns); the instruction must read back from its text and from its
/// JSON. Every opcode must have been drawn.
#[test]
fn isa_roundtrip() {
    let opcodes = Instr::MNEMONICS.len();
    let mut drawn = vec![0u32; opcodes];
    let mut cases = 0;
    run("isa_roundtrip", Config::with_cases(4096), |g| {
        let k = g.usize_in(0, opcodes);
        let ins = Instr::arbitrary(k, g);
        assert_eq!(ins.mnemonic(), Instr::MNEMONICS[k], "{ins:?} is opcode {k}");

        let text = ins.to_string();
        let back: Instr = text.parse().unwrap_or_else(|e| panic!("{e}: `{text}`"));
        assert!(same(&back, &ins), "parse(display(i)) == i for `{text}`: read {back:?}");

        let json = ins.to_json_string();
        let back = Instr::from_json_str(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(same(&back, &ins), "from_json(to_json(i)) == i for {json}: read {back:?}");

        drawn[k] += 1;
        cases += 1;
    });
    let missed: Vec<&str> =
        (0..opcodes).filter(|&k| drawn[k] == 0).map(|k| Instr::MNEMONICS[k]).collect();
    assert!(missed.is_empty(), "opcodes never drawn: {missed:?}");
    println!("isa_roundtrip: ran {cases} cases over {opcodes} opcodes");
}

/// Every opcode in turn, as a one-instruction program through the
/// assembler's program path (`asm::to_text` → `asm::parse`), which also
/// tells labels and directives apart from instructions.
#[test]
fn single_instruction_roundtrip() {
    let opcodes = Instr::MNEMONICS.len();
    let mut k = 0;
    run("single_instruction_roundtrip", Config::with_cases(8 * opcodes as u32), |g| {
        let ins = Instr::arbitrary(k % opcodes, g);
        k += 1;
        let mut p = AsmProgram::new();
        p.push(ins.clone());
        let text = asm::to_text(&p);
        let back = asm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(
            same_items(&back.items, &[AsmItem::Instr(ins.clone())]),
            "`{text}` read back as {:?}, not {ins:?}",
            back.items
        );
    });
    assert!(k >= opcodes, "only {k} of {opcodes} opcodes swept");
}

/// Every opcode in turn through the checkpoint JSON encoding.
#[test]
fn instr_json_roundtrip() {
    let opcodes = Instr::MNEMONICS.len();
    let mut k = 0;
    run("instr_json_roundtrip", Config::with_cases(8 * opcodes as u32), |g| {
        let ins = Instr::arbitrary(k % opcodes, g);
        k += 1;
        let encoded = ins.to_json_string();
        let back = Instr::from_json_str(&encoded).unwrap_or_else(|e| panic!("{e}\n{encoded}"));
        assert!(same(&back, &ins), "decode(encode(x)) == x for {encoded}: read {back:?}");
    });
    assert!(k >= opcodes, "only {k} of {opcodes} opcodes swept");
}

#[test]
fn program_roundtrip_fixpoint() {
    run("program_roundtrip_fixpoint", Config::with_cases(512), |g| {
        let instrs = g.vec_of(1, 60, any_instr);
        let mut p = AsmProgram::new();
        p.label("main");
        for (k, i) in instrs.into_iter().enumerate() {
            if k % 7 == 3 {
                p.label(format!("l{k}"));
            }
            p.push(i);
        }
        let t1 = asm::to_text(&p);
        let p2 = asm::parse(&t1).unwrap();
        let t2 = asm::to_text(&p2);
        assert_eq!(&t1, &t2);
        assert!(same_items(&p.items, &p2.items), "{t1}");
    });
}

#[test]
fn program_and_executable_json_roundtrip() {
    run("program_and_executable_json_roundtrip", Config::with_cases(64), |g| {
        let instrs = g.vec_of(1, 40, any_instr);
        let mut p = AsmProgram::new();
        p.label("main");
        for i in instrs {
            // Keep only link-safe instructions: no symbolic targets (they
            // may dangle), no spawn/join nesting hazards.
            if i.target().is_some() || matches!(i, Instr::Spawn { .. } | Instr::Join) {
                p.push(Instr::Nop);
            } else {
                p.push(i);
            }
        }
        p.push(Instr::Halt);

        let back = AsmProgram::from_json_str(&p.to_json_string()).unwrap();
        assert!(same_items(&back.items, &p.items));

        let mut mm = xmt_isa::MemoryMap::new();
        mm.push("data", vec![g.u32(), u32::MAX, 0]);
        let exe = p.link(mm).expect("link-safe program");
        let exe_back = xmt_isa::Executable::from_json_str(&exe.to_json_string()).unwrap();
        assert!(exe_back.text.len() == exe.text.len());
        assert!(exe_back.text.iter().zip(&exe.text).all(|(a, b)| same(a, b)));
        assert_eq!(
            (exe_back.labels, exe_back.spawn_join, exe_back.entry, exe_back.memmap),
            (exe.labels, exe.spawn_join, exe.entry, exe.memmap)
        );
    });
}
