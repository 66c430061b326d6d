//! Assembly programs and linked executable images.
//!
//! The compiler produces an [`AsmProgram`]: a flat list of labels and
//! instructions (with symbolic branch targets). [`AsmProgram::link`]
//! resolves labels to absolute instruction indices, pairs every `spawn`
//! with its `join`, and yields an [`Executable`] that the simulator can
//! load together with a [`crate::MemoryMap`].

use crate::instr::{Instr, Target};
use crate::memmap::MemoryMap;
use std::collections::BTreeMap;
use std::fmt;
use xmt_harness::json::{json_field, FromJson, Json, JsonError, ToJson};
use xmt_harness::{json_enum, json_struct};

/// One line of an assembly program.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmItem {
    /// A label definition (`name:`).
    Label(String),
    /// An instruction.
    Instr(Instr),
    /// A comment preserved for human inspection; ignored by the linker.
    Comment(String),
}

json_enum!(AsmItem { Label(String), Instr(Instr), Comment(String) });

/// An unlinked assembly program: the interchange format between the
/// compiler's code generator, its post-pass, and the simulator's front-end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsmProgram {
    pub items: Vec<AsmItem>,
}

json_struct!(AsmProgram { items });

/// Errors detected while linking an assembly program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A branch or jump referenced a label that is never defined.
    UndefinedLabel(String),
    /// The same label was defined more than once.
    DuplicateLabel(String),
    /// A `join` appeared without a preceding `spawn`.
    UnmatchedJoin(u32),
    /// A `spawn` was never closed by a `join`.
    UnmatchedSpawn(u32),
    /// `spawn` inside a spawn block: the hardware does not support nested
    /// parallel sections (the compiler serializes nested `spawn`s).
    NestedSpawn(u32),
    /// The program is empty.
    Empty,
    /// A memory-map entry runs past the end of the 32-bit address space.
    DataOverrun(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            LinkError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            LinkError::UnmatchedJoin(i) => write!(f, "`join` at instruction {i} without spawn"),
            LinkError::UnmatchedSpawn(i) => write!(f, "`spawn` at instruction {i} never joined"),
            LinkError::NestedSpawn(i) => write!(f, "nested `spawn` at instruction {i}"),
            LinkError::Empty => write!(f, "empty program"),
            LinkError::DataOverrun(name) => {
                write!(f, "global `{name}` runs past the end of the address space")
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl AsmProgram {
    /// Create an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an instruction.
    pub fn push(&mut self, i: Instr) {
        self.items.push(AsmItem::Instr(i));
    }

    /// Append a label definition.
    pub fn label(&mut self, name: impl Into<String>) {
        self.items.push(AsmItem::Label(name.into()));
    }

    /// Append a comment.
    pub fn comment(&mut self, text: impl Into<String>) {
        self.items.push(AsmItem::Comment(text.into()));
    }

    /// Iterate over the instructions only (skipping labels/comments).
    pub fn instrs(&self) -> impl Iterator<Item = &Instr> {
        self.items.iter().filter_map(|it| match it {
            AsmItem::Instr(i) => Some(i),
            _ => None,
        })
    }

    /// Number of instructions (labels and comments excluded).
    pub fn instr_count(&self) -> usize {
        self.instrs().count()
    }

    /// Resolve labels and produce a loadable [`Executable`].
    ///
    /// Execution starts at the `main` label if present, otherwise at
    /// instruction 0.
    pub fn link(&self, memmap: MemoryMap) -> Result<Executable, LinkError> {
        // Pass 1: assign instruction indices to labels.
        let mut labels: BTreeMap<String, u32> = BTreeMap::new();
        let mut idx: u32 = 0;
        for item in &self.items {
            match item {
                AsmItem::Label(name) => {
                    if labels.insert(name.clone(), idx).is_some() {
                        return Err(LinkError::DuplicateLabel(name.clone()));
                    }
                }
                AsmItem::Instr(_) => idx += 1,
                AsmItem::Comment(_) => {}
            }
        }
        if idx == 0 {
            return Err(LinkError::Empty);
        }
        if let Some(e) = memmap.entries.iter().find(|e| e.end().is_none()) {
            return Err(LinkError::DataOverrun(e.name.clone()));
        }

        // Pass 2: resolve targets, then match spawn/join.
        let mut text: Vec<Instr> = Vec::with_capacity(idx as usize);
        for item in &self.items {
            let AsmItem::Instr(ins) = item else { continue };
            let mut ins = ins.clone();
            if let Some(t) = ins.target_mut() {
                if let Target::Label(name) = t {
                    let Some(&abs) = labels.get(name.as_str()) else {
                        return Err(LinkError::UndefinedLabel(name.clone()));
                    };
                    *t = Target::Abs(abs);
                }
            }
            text.push(ins);
        }
        let spawn_join = pair_spawns(&text)?;

        let entry = labels.get("main").copied().unwrap_or(0);
        Ok(Executable { text, labels, spawn_join, entry, memmap })
    }
}

/// Pair every `spawn` of `text` with the `join` that closes it.
fn pair_spawns(text: &[Instr]) -> Result<BTreeMap<u32, u32>, LinkError> {
    let mut spawn_join: BTreeMap<u32, u32> = BTreeMap::new();
    let mut open_spawn: Option<u32> = None;
    for (here, ins) in text.iter().enumerate() {
        let here = here as u32;
        match ins {
            Instr::Spawn { .. } => {
                if open_spawn.is_some() {
                    return Err(LinkError::NestedSpawn(here));
                }
                open_spawn = Some(here);
            }
            Instr::Join => {
                let Some(s) = open_spawn.take() else {
                    return Err(LinkError::UnmatchedJoin(here));
                };
                spawn_join.insert(s, here);
            }
            _ => {}
        }
    }
    match open_spawn {
        Some(s) => Err(LinkError::UnmatchedSpawn(s)),
        None => Ok(spawn_join),
    }
}

/// A linked, loadable XMT program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Executable {
    /// Instructions; all branch targets are absolute indices.
    pub text: Vec<Instr>,
    /// Label → instruction index.
    pub labels: BTreeMap<String, u32>,
    /// For each `spawn` instruction index, the index of its `join`.
    pub spawn_join: BTreeMap<u32, u32>,
    /// Index of the first instruction executed by the Master TCU.
    pub entry: u32,
    /// Initial contents of the static data segment.
    pub memmap: MemoryMap,
}

impl ToJson for Executable {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("text".to_string(), self.text.to_json()),
            ("labels".to_string(), self.labels.to_json()),
            ("spawn_join".to_string(), self.spawn_join.to_json()),
            ("entry".to_string(), self.entry.to_json()),
            ("memmap".to_string(), self.memmap.to_json()),
        ])
    }
}

/// An image read back is held to what [`AsmProgram::link`] guarantees
/// the simulators: its spawn/join table is the one its text implies.
impl FromJson for Executable {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let bad = |e: &dyn fmt::Display| JsonError::new(format!("Executable: {e}"));
        let m = v.as_obj().map_err(|e| bad(&e.message))?;
        let exe = Executable {
            text: json_field(m, "text")?,
            labels: json_field(m, "labels")?,
            spawn_join: json_field(m, "spawn_join")?,
            entry: json_field(m, "entry")?,
            memmap: json_field(m, "memmap")?,
        };
        if pair_spawns(&exe.text).map_err(|e| bad(&e))? != exe.spawn_join {
            return Err(bad(&"spawn_join does not match the text"));
        }
        Ok(exe)
    }
}

impl Executable {
    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The instruction at `idx`, if in range.
    pub fn instr(&self, idx: u32) -> Option<&Instr> {
        self.text.get(idx as usize)
    }

    /// The `join` index matching the `spawn` at `spawn_idx`.
    pub fn join_of(&self, spawn_idx: u32) -> Option<u32> {
        self.spawn_join.get(&spawn_idx).copied()
    }

    /// Address of a data symbol from the memory map.
    pub fn data_symbol(&self, name: &str) -> Option<u32> {
        self.memmap.lookup(name).map(|e| e.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn spawn_pair() -> (Instr, Instr) {
        (Instr::Spawn { lo: Reg::A0, hi: Reg::A1 }, Instr::Join)
    }

    #[test]
    fn link_resolves_labels_and_entry() {
        let mut p = AsmProgram::new();
        p.label("main");
        p.push(Instr::Li { rt: Reg::T0, imm: 3 });
        p.label("loop");
        p.push(Instr::Addi { rt: Reg::T0, rs: Reg::T0, imm: -1 });
        p.push(Instr::Bgtz { rs: Reg::T0, target: Target::label("loop") });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::default()).unwrap();
        assert_eq!(exe.entry, 0);
        assert_eq!(exe.labels["loop"], 1);
        assert_eq!(
            exe.text[2],
            Instr::Bgtz { rs: Reg::T0, target: Target::Abs(1) }
        );
    }

    #[test]
    fn link_matches_spawn_join() {
        let (s, j) = spawn_pair();
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::A0, imm: 0 });
        p.push(s);
        p.push(Instr::Nop);
        p.push(j);
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::default()).unwrap();
        assert_eq!(exe.join_of(1), Some(3));
    }

    #[test]
    fn link_rejects_undefined_label() {
        let mut p = AsmProgram::new();
        p.push(Instr::J { target: Target::label("nowhere") });
        assert_eq!(
            p.link(MemoryMap::default()),
            Err(LinkError::UndefinedLabel("nowhere".into()))
        );
    }

    #[test]
    fn link_rejects_duplicate_label() {
        let mut p = AsmProgram::new();
        p.label("a");
        p.push(Instr::Nop);
        p.label("a");
        p.push(Instr::Halt);
        assert!(matches!(
            p.link(MemoryMap::default()),
            Err(LinkError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn link_rejects_unmatched_and_nested_spawn() {
        let (s, j) = spawn_pair();
        let mut p = AsmProgram::new();
        p.push(s.clone());
        assert!(matches!(
            p.link(MemoryMap::default()),
            Err(LinkError::UnmatchedSpawn(0))
        ));

        let mut p = AsmProgram::new();
        p.push(j.clone());
        assert!(matches!(
            p.link(MemoryMap::default()),
            Err(LinkError::UnmatchedJoin(0))
        ));

        let mut p = AsmProgram::new();
        p.push(s.clone());
        p.push(s);
        p.push(j.clone());
        p.push(j);
        assert!(matches!(
            p.link(MemoryMap::default()),
            Err(LinkError::NestedSpawn(1))
        ));
    }

    #[test]
    fn reading_an_image_checks_spawn_join_against_the_text() {
        let (s, j) = spawn_pair();
        let mut p = AsmProgram::new();
        p.push(s);
        p.push(j);
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::default()).unwrap();
        assert_eq!(Executable::from_json_str(&exe.to_json_string()), Ok(exe.clone()));

        let mut cleared = exe.clone();
        cleared.spawn_join.clear();
        let err = Executable::from_json_str(&cleared.to_json_string()).unwrap_err();
        assert!(err.message.contains("spawn_join does not match"), "{err}");

        let mut unjoined = exe;
        unjoined.text[1] = Instr::Nop;
        let err = Executable::from_json_str(&unjoined.to_json_string()).unwrap_err();
        assert!(err.message.contains("never joined"), "{err}");
    }

    #[test]
    fn link_rejects_empty() {
        let p = AsmProgram::new();
        assert_eq!(p.link(MemoryMap::default()), Err(LinkError::Empty));
    }

    #[test]
    fn link_rejects_data_past_the_address_space() {
        let mut p = AsmProgram::new();
        p.push(Instr::Halt);
        let mut mm = MemoryMap::default();
        mm.entries.push(crate::MemEntry { name: "x".into(), addr: 0xffff_fffc, words: vec![7, 9] });
        assert_eq!(p.link(mm), Err(LinkError::DataOverrun("x".into())));
    }

    #[test]
    fn comments_and_labels_do_not_count() {
        let mut p = AsmProgram::new();
        p.comment("header");
        p.label("main");
        p.push(Instr::Halt);
        assert_eq!(p.instr_count(), 1);
    }
}
