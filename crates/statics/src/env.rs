//! Static environments: the bindings of modules, signatures and functors.
//!
//! A [`Bindings`] is the paper's "environment mapping names to types and
//! values" (§3), split by namespace and kept in insertion order — order
//! matters both for deterministic intrinsic-pid hashing (§5 does a
//! prefix-order traversal) and because a module's *runtime record layout*
//! is derived positionally from its bindings (see [`runtime_slots`]).

use smlsc_ids::PidCell;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use smlsc_dynamics::ir::ConTag;
use smlsc_ids::{Stamp, Symbol};
use smlsc_syntax::ast::PrimOp;

use crate::types::{Scheme, Tycon};

/// How a value binding behaves.
#[derive(Debug, Clone)]
pub enum ValKind {
    /// An ordinary value; occupies a runtime record slot.
    Plain,
    /// A datatype constructor; purely static (no slot), applied or matched
    /// via its tag.
    Con {
        /// The datatype it belongs to.
        tycon: Arc<Tycon>,
        /// Runtime tag information.
        tag: ConTag,
    },
    /// An exception constructor; generative at runtime, occupies a slot.
    Exn,
    /// A compiler-primitive value (`itos`, `size`); purely static (no
    /// slot), applied directly or eta-expanded when used first-class.
    Prim(PrimOp),
}

/// A value binding: scheme plus kind.
#[derive(Debug, Clone)]
pub struct ValBind {
    /// The (possibly polymorphic) type.
    pub scheme: Scheme,
    /// Value, constructor, or exception.
    pub kind: ValKind,
}

/// The bindings of one structure (or one environment layer).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// Value bindings in insertion order.
    pub vals: Vec<(Symbol, ValBind)>,
    /// Type constructors.
    pub tycons: Vec<(Symbol, Arc<Tycon>)>,
    /// Substructures.
    pub strs: Vec<(Symbol, Arc<StructureEnv>)>,
    /// Signatures (unit-level only; structures cannot contain them).
    pub sigs: Vec<(Symbol, Arc<SignatureEnv>)>,
    /// Functors.
    pub fcts: Vec<(Symbol, Arc<FunctorEnv>)>,
}

impl Bindings {
    /// An empty record of bindings.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Looks up a value (last binding wins).
    pub fn val(&self, name: Symbol) -> Option<&ValBind> {
        self.vals
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a type constructor.
    pub fn tycon(&self, name: Symbol) -> Option<&Arc<Tycon>> {
        self.tycons
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a substructure.
    pub fn str(&self, name: Symbol) -> Option<&Arc<StructureEnv>> {
        self.strs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a signature.
    pub fn sig(&self, name: Symbol) -> Option<&Arc<SignatureEnv>> {
        self.sigs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a functor.
    pub fn fct(&self, name: Symbol) -> Option<&Arc<FunctorEnv>> {
        self.fcts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
            && self.tycons.is_empty()
            && self.strs.is_empty()
            && self.sigs.is_empty()
            && self.fcts.is_empty()
    }

    /// Total number of bindings across namespaces.
    pub fn len(&self) -> usize {
        self.vals.len() + self.tycons.len() + self.strs.len() + self.sigs.len() + self.fcts.len()
    }
}

/// An elaborated structure: generative stamp plus bindings.
#[derive(Debug)]
pub struct StructureEnv {
    /// Generative identity.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// The members.
    pub bindings: Bindings,
    /// The index of `bindings`' runtime layout, built on first use.  A
    /// structure is immutable once shared, so the memo never goes stale.
    layout: OnceLock<Layout>,
}

impl StructureEnv {
    /// Allocates a structure environment.
    pub fn new(stamp: Stamp, bindings: Bindings) -> Arc<StructureEnv> {
        Arc::new(StructureEnv {
            stamp,
            entity_pid: PidCell::new(None),
            bindings,
            layout: OnceLock::new(),
        })
    }

    /// The runtime layout of the members, indexed by name (memoized).
    pub fn layout(&self) -> &Layout {
        self.layout.get_or_init(|| Layout::of(&self.bindings))
    }

    /// Looks up a value (last binding wins) through the layout index.
    pub fn val(&self, name: Symbol) -> Option<&ValBind> {
        let m = self.layout().val(name)?;
        Some(&self.bindings.vals[m.pos as usize].1)
    }

    /// Looks up a substructure through the layout index.
    pub fn str(&self, name: Symbol) -> Option<&Arc<StructureEnv>> {
        let m = self.layout().str(name)?;
        Some(&self.bindings.strs[m.pos as usize].1)
    }
}

/// An elaborated signature: a structure *template* whose `bound` stamps
/// are flexible — instantiated afresh per use, realized to actual tycons
/// by signature matching.
#[derive(Debug)]
pub struct SignatureEnv {
    /// Generative identity of the signature itself.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// Stamps of the flexible components (abstract types and datatype
    /// specs), in template traversal order.
    pub bound: Vec<Stamp>,
    /// The template.
    pub body: Arc<StructureEnv>,
    /// Raw-stamp range `[lo, hi)` of the template's own entities; realizing
    /// the template regenerates exactly this range (external references
    /// stay shared).
    pub lo: u64,
    /// See `lo`.
    pub hi: u64,
}

/// An elaborated functor.
///
/// The body was elaborated once against a skolemized instance of the
/// parameter signature; application realizes `skolems` to the argument's
/// actual tycons and refreshes every stamp in the generative range
/// (`gen_lo..gen_hi`) — so each application yields fresh datatypes,
/// exactly SML's generativity.
#[derive(Debug)]
pub struct FunctorEnv {
    /// Generative identity.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// The formal parameter name (for error messages).
    pub param_name: Symbol,
    /// The parameter signature.
    pub param_sig: Arc<SignatureEnv>,
    /// The skolemized parameter instance the body saw.
    pub param_inst: Arc<StructureEnv>,
    /// Skolem stamps, parallel to `param_sig.bound`.
    pub skolems: Vec<Stamp>,
    /// The body template (references skolems and generative stamps).
    pub body: Arc<StructureEnv>,
    /// Raw-stamp range `[gen_lo, gen_hi)` of entities generated while
    /// elaborating the body; these are refreshed per application.
    pub gen_lo: u64,
    /// See `gen_lo`.
    pub gen_hi: u64,
}

/// What occupies one runtime record slot of a structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A value (kind `Plain` or `Exn`).
    Val(Symbol),
    /// A substructure record.
    Str(Symbol),
    /// A functor closure.
    Fct(Symbol),
}

/// Marks, per position, whether it holds the last binding of its name:
/// one reverse pass, so a structure of n members costs O(n), not one
/// scan per member.
fn last_of_name<T>(v: &[(Symbol, T)]) -> Vec<bool> {
    let mut seen = HashSet::with_capacity(v.len());
    let mut last = vec![false; v.len()];
    for (i, (name, _)) in v.iter().enumerate().rev() {
        last[i] = seen.insert(*name);
    }
    last
}

/// Visits the last binding of every value, structure and functor name
/// of `b` in layout order, passing the name (as the slot it would take),
/// its position in its namespace's vector, and whether it takes a slot.
fn visit_last(b: &Bindings, mut f: impl FnMut(Slot, usize, bool)) {
    for (i, ((name, vb), last)) in b.vals.iter().zip(last_of_name(&b.vals)).enumerate() {
        if last {
            f(
                Slot::Val(*name),
                i,
                matches!(vb.kind, ValKind::Plain | ValKind::Exn),
            );
        }
    }
    for (i, ((name, _), last)) in b.strs.iter().zip(last_of_name(&b.strs)).enumerate() {
        if last {
            f(Slot::Str(*name), i, true);
        }
    }
    for (i, ((name, _), last)) in b.fcts.iter().zip(last_of_name(&b.fcts)).enumerate() {
        if last {
            f(Slot::Fct(*name), i, true);
        }
    }
}

/// Visits the slots of `b` in layout order, passing each slot and the
/// position of its binding in its namespace's vector.
pub(crate) fn visit_slots(b: &Bindings, mut f: impl FnMut(Slot, usize)) {
    visit_last(b, |slot, pos, slotted| {
        if slotted {
            f(slot, pos);
        }
    });
}

/// The runtime record layout of a structure with these bindings.
///
/// Layout rule (shared by the elaborator, coercion generator and linker):
/// every `Plain`/`Exn` value in order, then every substructure, then every
/// functor.  Constructors and signatures have no runtime representation.
/// When a name is bound more than once, only the *last* binding gets a
/// slot (earlier ones are shadowed and unreachable).
pub fn runtime_slots(b: &Bindings) -> Vec<Slot> {
    let mut out = Vec::new();
    visit_slots(b, |slot, _| out.push(slot));
    out
}

/// The slot index of value `name` in the layout of `b`, if it has one.
///
/// O(size of `b`) per call; repeated lookups in one structure go through
/// its memoized [`StructureEnv::layout`] (or one [`Layout::of`]).
pub fn val_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    Layout::of(b).val(name).and_then(|m| m.slot)
}

/// The slot index of substructure `name`.
pub fn str_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    Layout::of(b).str(name).and_then(|m| m.slot)
}

/// The slot index of functor `name`.
pub fn fct_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    Layout::of(b).fct(name).and_then(|m| m.slot)
}

/// Where the last binding of one name sits: its position in its
/// namespace's vector of [`Bindings`], and its runtime slot, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Index into `vals`, `strs` or `fcts`.
    pub pos: u32,
    /// Record slot; `None` for constructors and primitives.
    pub slot: Option<u32>,
}

/// One name's entry in a [`Layout`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    name: Symbol,
    pos: u32,
    /// Record slot, or [`NO_SLOT`].
    slot: u32,
}

const NO_SLOT: u32 = u32::MAX;

/// The runtime layout of one [`Bindings`], indexed by name: for every
/// value, substructure and functor name, its last binding and its slot
/// (see [`runtime_slots`] for the layout rule).
///
/// Built in one pass plus a sort, then answered by binary search, so a
/// structure of n members costs O(n log n) once instead of O(n²) per
/// lookup.  Kept compact — 12 bytes per name, no hash table — because
/// every elaborated or rehydrated structure may carry one
/// ([`StructureEnv::layout`]).
#[derive(Debug)]
pub struct Layout {
    /// Values, then structures, then functors; each run sorted by name.
    entries: Box<[Entry]>,
    /// End of the value run and of the structure run in `entries`.
    ends: [u32; 2],
}

impl Layout {
    /// Indexes the layout of `b`.
    pub fn of(b: &Bindings) -> Layout {
        let mut entries = Vec::with_capacity(b.vals.len() + b.strs.len() + b.fcts.len());
        let mut ends = [0u32; 2];
        let mut next = 0u32;
        visit_last(b, |slot, pos, slotted| {
            let name = match slot {
                Slot::Val(name) => {
                    ends[0] += 1;
                    ends[1] += 1;
                    name
                }
                Slot::Str(name) => {
                    ends[1] += 1;
                    name
                }
                Slot::Fct(name) => name,
            };
            entries.push(Entry {
                name,
                pos: pos as u32,
                slot: if slotted { next } else { NO_SLOT },
            });
            next += u32::from(slotted);
        });
        let (vals, rest) = entries.split_at_mut(ends[0] as usize);
        let (strs, fcts) = rest.split_at_mut((ends[1] - ends[0]) as usize);
        for run in [vals, strs, fcts] {
            run.sort_unstable_by_key(|e| e.name);
        }
        Layout {
            entries: entries.into_boxed_slice(),
            ends,
        }
    }

    fn find(run: &[Entry], name: Symbol) -> Option<Member> {
        let e = &run[run.binary_search_by_key(&name, |e| e.name).ok()?];
        Some(Member {
            pos: e.pos,
            slot: (e.slot != NO_SLOT).then_some(e.slot),
        })
    }

    /// The last value binding named `name`.
    pub fn val(&self, name: Symbol) -> Option<Member> {
        Layout::find(&self.entries[..self.ends[0] as usize], name)
    }

    /// The last substructure binding named `name`.
    pub fn str(&self, name: Symbol) -> Option<Member> {
        Layout::find(
            &self.entries[self.ends[0] as usize..self.ends[1] as usize],
            name,
        )
    }

    /// The last functor binding named `name`.
    pub fn fct(&self, name: Symbol) -> Option<Member> {
        Layout::find(&self.entries[self.ends[1] as usize..], name)
    }
}

// `Bindings` crosses build-worker threads in the IRM's parallel
// scheduler; this fails to compile if any component regresses to a
// single-threaded cell.
#[allow(dead_code)]
fn assert_bindings_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bindings>();
    assert_send_sync::<StructureEnv>();
    assert_send_sync::<SignatureEnv>();
    assert_send_sync::<FunctorEnv>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TyconDef, Type};
    use proptest::prelude::*;
    use smlsc_ids::StampGenerator;

    /// The original quadratic layout: one backwards scan per binding to
    /// decide whether it is its name's last.  Kept as the oracle the
    /// linear [`runtime_slots`] and [`Layout`] must agree with.
    fn oracle_runtime_slots(b: &Bindings) -> Vec<Slot> {
        let mut out = Vec::new();
        for (i, (name, vb)) in b.vals.iter().enumerate() {
            let last = b.vals.iter().rposition(|(n, _)| n == name).unwrap();
            if last == i && matches!(vb.kind, ValKind::Plain | ValKind::Exn) {
                out.push(Slot::Val(*name));
            }
        }
        for (i, (name, _)) in b.strs.iter().enumerate() {
            if b.strs.iter().rposition(|(n, _)| n == name).unwrap() == i {
                out.push(Slot::Str(*name));
            }
        }
        for (i, (name, _)) in b.fcts.iter().enumerate() {
            if b.fcts.iter().rposition(|(n, _)| n == name).unwrap() == i {
                out.push(Slot::Fct(*name));
            }
        }
        out
    }

    /// The original slot lookup: rebuild the layout, scan it.
    fn oracle_slot(b: &Bindings, want: Slot) -> Option<u32> {
        oracle_runtime_slots(b)
            .iter()
            .position(|s| *s == want)
            .map(|i| i as u32)
    }

    fn dummy_functor(g: &mut StampGenerator) -> Arc<FunctorEnv> {
        let body = StructureEnv::new(g.fresh(), Bindings::new());
        Arc::new(FunctorEnv {
            stamp: g.fresh(),
            entity_pid: PidCell::new(None),
            param_name: Symbol::intern("P"),
            param_sig: Arc::new(SignatureEnv {
                stamp: g.fresh(),
                entity_pid: PidCell::new(None),
                bound: Vec::new(),
                body: body.clone(),
                lo: 0,
                hi: 0,
            }),
            param_inst: body.clone(),
            skolems: Vec::new(),
            body,
            gen_lo: 0,
            gen_hi: 0,
        })
    }

    /// Random bindings over a small name pool, so names shadow often;
    /// value kinds cycle through Plain, Con, Exn and Prim.
    fn arb_bindings() -> impl Strategy<Value = Bindings> {
        (
            proptest::collection::vec((0u8..8, 0u8..4), 0..40),
            proptest::collection::vec(0u8..5, 0..8),
            proptest::collection::vec(0u8..5, 0..8),
        )
            .prop_map(|(vals, strs, fcts)| {
                let mut g = StampGenerator::new();
                let tc = Tycon::new(g.fresh(), Symbol::intern("t"), 0, TyconDef::Abstract);
                let mut b = Bindings::new();
                for (n, kind) in vals {
                    let vb = match kind {
                        0 => plain_val(),
                        1 => con_val(tc.clone()),
                        2 => ValBind {
                            scheme: Scheme::mono(Type::fresh(0)),
                            kind: ValKind::Exn,
                        },
                        _ => ValBind {
                            scheme: Scheme::mono(Type::fresh(0)),
                            kind: ValKind::Prim(PrimOp::Add),
                        },
                    };
                    b.vals.push((Symbol::intern(&format!("v{n}")), vb));
                }
                for n in strs {
                    let s = StructureEnv::new(g.fresh(), Bindings::new());
                    b.strs.push((Symbol::intern(&format!("S{n}")), s));
                }
                for n in fcts {
                    b.fcts
                        .push((Symbol::intern(&format!("F{n}")), dummy_functor(&mut g)));
                }
                b
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass layout equals the quadratic one.
        #[test]
        fn runtime_slots_match_the_quadratic_oracle(b in arb_bindings()) {
            prop_assert_eq!(runtime_slots(&b), oracle_runtime_slots(&b));
        }

        /// Every name's indexed slot and binding equal the oracle's, in
        /// every namespace, for bound and unbound names alike.
        #[test]
        fn layout_index_matches_the_quadratic_oracle(b in arb_bindings()) {
            let layout = Layout::of(&b);
            let env = StructureEnv::new(StampGenerator::new().fresh(), b.clone());
            for n in 0..9 {
                let v = Symbol::intern(&format!("v{n}"));
                prop_assert_eq!(layout.val(v).and_then(|m| m.slot), oracle_slot(&b, Slot::Val(v)));
                prop_assert_eq!(val_slot(&b, v), oracle_slot(&b, Slot::Val(v)));
                prop_assert_eq!(env.layout().val(v).and_then(|m| m.slot), oracle_slot(&b, Slot::Val(v)));
                let want = env.bindings.val(v).map(|vb| vb as *const ValBind);
                prop_assert_eq!(env.val(v).map(|vb| vb as *const ValBind), want);
                let s = Symbol::intern(&format!("S{n}"));
                prop_assert_eq!(str_slot(&b, s), oracle_slot(&b, Slot::Str(s)));
                prop_assert_eq!(
                    env.str(s).map(|x| x.stamp),
                    b.str(s).map(|x| x.stamp)
                );
                let f = Symbol::intern(&format!("F{n}"));
                prop_assert_eq!(fct_slot(&b, f), oracle_slot(&b, Slot::Fct(f)));
                prop_assert_eq!(
                    env.layout().fct(f).map(|m| env.bindings.fcts[m.pos as usize].1.stamp),
                    b.fct(f).map(|x| x.stamp)
                );
            }
        }
    }

    fn plain_val() -> ValBind {
        ValBind {
            scheme: Scheme::mono(Type::fresh(0)),
            kind: ValKind::Plain,
        }
    }

    fn con_val(tycon: Arc<Tycon>) -> ValBind {
        ValBind {
            scheme: Scheme::mono(Type::fresh(0)),
            kind: ValKind::Con {
                tycon,
                tag: ConTag {
                    tag: 0,
                    span: 1,
                    has_arg: false,
                    name: Symbol::intern("C"),
                },
            },
        }
    }

    #[test]
    fn layout_skips_constructors() {
        let mut g = StampGenerator::new();
        let tc = Tycon::new(g.fresh(), Symbol::intern("t"), 0, TyconDef::Abstract);
        let mut b = Bindings::new();
        b.vals.push((Symbol::intern("x"), plain_val()));
        b.vals.push((Symbol::intern("C"), con_val(tc)));
        b.vals.push((Symbol::intern("y"), plain_val()));
        let slots = runtime_slots(&b);
        assert_eq!(
            slots,
            vec![
                Slot::Val(Symbol::intern("x")),
                Slot::Val(Symbol::intern("y"))
            ]
        );
        assert_eq!(val_slot(&b, Symbol::intern("y")), Some(1));
        assert_eq!(val_slot(&b, Symbol::intern("C")), None);
    }

    #[test]
    fn layout_orders_vals_then_strs_then_fcts() {
        let mut g = StampGenerator::new();
        let mut b = Bindings::new();
        b.strs.push((
            Symbol::intern("S"),
            StructureEnv::new(g.fresh(), Bindings::new()),
        ));
        b.vals.push((Symbol::intern("x"), plain_val()));
        let slots = runtime_slots(&b);
        assert_eq!(
            slots,
            vec![
                Slot::Val(Symbol::intern("x")),
                Slot::Str(Symbol::intern("S"))
            ]
        );
        assert_eq!(str_slot(&b, Symbol::intern("S")), Some(1));
    }

    #[test]
    fn shadowed_bindings_lose_their_slot() {
        let mut b = Bindings::new();
        b.vals.push((Symbol::intern("x"), plain_val()));
        b.vals.push((Symbol::intern("x"), plain_val()));
        assert_eq!(runtime_slots(&b).len(), 1);
    }

    #[test]
    fn lookup_finds_last_binding() {
        let mut b = Bindings::new();
        let v1 = ValBind {
            scheme: Scheme::mono(Type::Param(0)),
            kind: ValKind::Plain,
        };
        let v2 = ValBind {
            scheme: Scheme::mono(Type::Param(1)),
            kind: ValKind::Plain,
        };
        b.vals.push((Symbol::intern("x"), v1));
        b.vals.push((Symbol::intern("x"), v2));
        let got = b.val(Symbol::intern("x")).unwrap();
        assert!(matches!(got.scheme.body, Type::Param(1)));
    }
}
