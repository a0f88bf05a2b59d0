//! The elaborator: type checking plus translation to runtime IR.
//!
//! `compile`'s static half (§3): elaborating a unit against the static
//! environments of its imports yields the unit's export bindings (its
//! *statenv*) and its code object.  The elaborator resolves every name to
//! either a local lvar or a positional path rooted at an import slot, so
//! the code it emits is exactly the paper's "closed code parameterized by
//! a vector of import values".

mod core;
mod modules;

use std::collections::HashMap;
use std::sync::Arc;

use smlsc_dynamics::ir::{Ir, IrDec, LVar};
use smlsc_ids::{StampGenerator, Symbol};
use smlsc_syntax::ast::{Path, UnitAst};

use crate::env::{
    visit_slots, Bindings, FunctorEnv, Layout, Member, SignatureEnv, Slot, StructureEnv, ValBind,
    ValKind,
};
use crate::error::ElabError;
use crate::pervasive::{pervasives, Pervasives};
use crate::types::{Scheme, Tycon, Type};

/// One unit visible to the unit being compiled, occupying import slot `i`
/// (its position in [`ImportEnv::units`]).
#[derive(Debug, Clone)]
pub struct ImportedUnit {
    /// The unit's name (file stem), for error messages.
    pub name: Symbol,
    /// The unit's exported bindings (rehydrated from its bin file).
    pub exports: Arc<Bindings>,
}

/// The compilation context: every import, in slot order.
#[derive(Debug, Clone, Default)]
pub struct ImportEnv {
    /// Imported units; index = import slot.
    pub units: Vec<ImportedUnit>,
    /// When `false` (batch compilation), a name exported by two imports is
    /// ambiguous and errors.  When `true` (interactive sessions), the
    /// *latest* import wins — the read-eval-print loop's layered
    /// environments (§7).
    pub shadowing: bool,
}

impl ImportEnv {
    /// A context with no imports.
    pub fn empty() -> ImportEnv {
        ImportEnv::default()
    }
}

/// The result of elaborating one unit.
#[derive(Debug)]
pub struct ElabUnit {
    /// The unit's exported static environment.
    pub exports: Arc<Bindings>,
    /// The unit's code: evaluates to its export record given one import
    /// record per [`ImportEnv`] slot.
    pub code: Ir,
    /// Non-fatal diagnostics: inexhaustive matches, redundant rules,
    /// refutable `val` bindings.
    pub warnings: Vec<crate::error::ElabWarning>,
}

/// Elaborates (type checks and translates) a compilation unit.
///
/// # Errors
///
/// Returns the first [`ElabError`]: unbound names, type clashes, signature
/// mismatches, or unresolved polymorphism at the unit boundary.
///
/// # Examples
///
/// ```
/// use smlsc_statics::elab::{elaborate_unit, ImportEnv};
/// let ast = smlsc_syntax::parse_unit(
///     "structure A = struct val x = 1 + 2 end",
/// ).unwrap();
/// let unit = elaborate_unit(&ast, &ImportEnv::empty()).unwrap();
/// assert_eq!(unit.exports.strs.len(), 1);
/// ```
pub fn elaborate_unit(unit: &UnitAst, imports: &ImportEnv) -> Result<ElabUnit, ElabError> {
    let mut el = Elaborator::new(imports);
    // Bind every import record to a local variable up front.  References
    // to imports compile to these locals, so closures *capture* them —
    // `Ir::Import` must never appear under a lambda, where it would be
    // resolved against the calling unit's import vector.
    let mut irdecs: Vec<IrDec> = (0..imports.units.len() as u32)
        .map(|slot| {
            IrDec::Val(
                smlsc_dynamics::ir::IrPat::Var(el.import_lvars[slot as usize]),
                Ir::Import(slot),
            )
        })
        .collect();
    el.frames.push(Frame::default());
    for dec in &unit.decs {
        el.elab_topdec(dec, &mut irdecs)?;
    }
    let frame = el.frames.pop().expect("unit frame");
    let bindings = frame.to_bindings();
    check_exports_resolved(&bindings)?;
    let record = frame.record_ir(&bindings)?;
    Ok(ElabUnit {
        exports: Arc::new(bindings),
        code: Ir::Let(irdecs, Box::new(record)),
        warnings: el.warnings,
    })
}

/// Errors if any exported scheme still contains an unsolved unification
/// variable (SML's "free type variable at top level").
fn check_exports_resolved(b: &Bindings) -> Result<(), ElabError> {
    fn check_scheme(name: Symbol, s: &Scheme) -> Result<(), ElabError> {
        let mut vs = Vec::new();
        s.body.free_uvars(&mut vs);
        if vs.is_empty() {
            Ok(())
        } else {
            Err(ElabError::new(format!(
                "unresolved type variable in exported value `{name}`"
            )))
        }
    }
    fn go(b: &Bindings) -> Result<(), ElabError> {
        for (n, vb) in &b.vals {
            check_scheme(*n, &vb.scheme)?;
        }
        for (_, s) in &b.strs {
            go(&s.bindings)?;
        }
        Ok(())
    }
    go(b)
}

/// How a value is reached at runtime.
#[derive(Debug, Clone)]
pub enum Access {
    /// A local variable.
    Local(LVar),
    /// An import slot's export record.
    Import(u32),
    /// A record field of another access.
    Select(Arc<Access>, u32),
}

impl Access {
    /// Lowers the access path to IR.
    pub fn ir(&self) -> Ir {
        match self {
            Access::Local(v) => Ir::Local(*v),
            Access::Import(i) => Ir::Import(*i),
            Access::Select(base, slot) => Ir::Select(Box::new(base.ir()), *slot),
        }
    }

    /// Selects a field.
    pub fn field(&self, slot: u32) -> Access {
        Access::Select(Arc::new(self.clone()), slot)
    }
}

/// One lexical scope of the elaborator, mirroring [`Bindings`] but
/// carrying runtime access information.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    pub vals: Vec<(Symbol, ValBind, Option<Access>)>,
    pub tycons: Vec<(Symbol, Arc<Tycon>)>,
    pub strs: Vec<(Symbol, Arc<StructureEnv>, Option<Access>)>,
    pub sigs: Vec<(Symbol, Arc<SignatureEnv>)>,
    pub fcts: Vec<(Symbol, Arc<FunctorEnv>, Option<Access>)>,
}

impl Frame {
    pub fn to_bindings(&self) -> Bindings {
        Bindings {
            vals: self.vals.iter().map(|(n, v, _)| (*n, v.clone())).collect(),
            tycons: self.tycons.clone(),
            strs: self.strs.iter().map(|(n, s, _)| (*n, s.clone())).collect(),
            sigs: self.sigs.clone(),
            fcts: self.fcts.iter().map(|(n, f, _)| (*n, f.clone())).collect(),
        }
    }

    /// Builds the record expression materializing these bindings with the
    /// canonical layout of `bindings` (which must be `self.to_bindings()`).
    /// Positions in `bindings` are positions in `self`, so each slot's
    /// access is one index away.
    pub fn record_ir(&self, bindings: &Bindings) -> Result<Ir, ElabError> {
        let mut fields = Vec::new();
        let mut missing = false;
        visit_slots(bindings, |slot, pos| {
            let access = match slot {
                Slot::Val(_) => self.vals[pos].2.as_ref(),
                Slot::Str(_) => self.strs[pos].2.as_ref(),
                Slot::Fct(_) => self.fcts[pos].2.as_ref(),
            };
            match access {
                Some(a) => fields.push(a.ir()),
                None => missing = true,
            }
        });
        if missing {
            return Err(ElabError::new(
                "internal: binding without runtime access in record",
            ));
        }
        Ok(Ir::Record(fields))
    }
}

pub(crate) struct Elaborator<'a> {
    pub imports: &'a ImportEnv,
    /// The layout of each import's exports, parallel to `imports.units`.
    import_layouts: Vec<Layout>,
    pub perv: Arc<Pervasives>,
    pub stamper: StampGenerator,
    pub frames: Vec<Frame>,
    pub next_lvar: LVar,
    pub level: u32,
    /// Scoped type-variable environments for `val`/`fun` declarations.
    pub tyvars: Vec<HashMap<Symbol, Type>>,
    /// The lvar each import record is bound to at unit entry.
    pub import_lvars: Vec<LVar>,
    /// Accumulated non-fatal diagnostics.
    pub warnings: Vec<crate::error::ElabWarning>,
}

impl<'a> Elaborator<'a> {
    pub fn new(imports: &'a ImportEnv) -> Elaborator<'a> {
        let n = imports.units.len() as LVar;
        Elaborator {
            imports,
            import_layouts: imports
                .units
                .iter()
                .map(|u| Layout::of(&u.exports))
                .collect(),
            perv: pervasives(),
            stamper: StampGenerator::new(),
            frames: Vec::new(),
            next_lvar: n,
            level: 0,
            tyvars: Vec::new(),
            import_lvars: (0..n).collect(),
            warnings: Vec::new(),
        }
    }

    /// Records a non-fatal diagnostic.
    pub fn warn(&mut self, message: impl Into<String>) {
        self.warnings.push(crate::error::ElabWarning {
            message: message.into(),
            loc: None,
        });
    }

    pub fn fresh_lvar(&mut self) -> LVar {
        let v = self.next_lvar;
        self.next_lvar += 1;
        v
    }

    pub fn cur_frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("at least one frame")
    }

    // ----- name resolution -------------------------------------------------

    /// Finds the import slot and member for a root symbol exported by
    /// some imported unit, in the namespace `pick` selects from the
    /// import's layout.
    fn import_member(
        &self,
        name: Symbol,
        pick: impl Fn(&Layout, Symbol) -> Option<Member>,
    ) -> Result<Option<(u32, Member, &ImportedUnit)>, ElabError> {
        let mut found = None;
        for (slot, (u, layout)) in self
            .imports
            .units
            .iter()
            .zip(&self.import_layouts)
            .enumerate()
        {
            if let Some(member) = pick(layout, name) {
                // Under shadowing (interactive sessions), the later unit
                // wins; otherwise a name in two imports is ambiguous.
                if found.is_some() && !self.imports.shadowing {
                    return Err(ElabError::new(format!(
                        "`{name}` is exported by more than one imported unit"
                    )));
                }
                found = Some((slot as u32, member, u));
            }
        }
        Ok(found)
    }

    pub fn lookup_str_root(
        &self,
        name: Symbol,
    ) -> Result<(Arc<StructureEnv>, Option<Access>), ElabError> {
        for frame in self.frames.iter().rev() {
            if let Some((_, s, a)) = frame.strs.iter().rev().find(|(n, _, _)| *n == name) {
                return Ok((s.clone(), a.clone()));
            }
        }
        if let Some((slot, member, u)) = self.import_member(name, Layout::str)? {
            let s = u.exports.strs[member.pos as usize].1.clone();
            let base = Access::Local(self.import_lvars[slot as usize]);
            return Ok((s, member.slot.map(|m| base.field(m))));
        }
        // A structure exported without a runtime slot cannot exist; report
        // unbound.
        Err(ElabError::new(format!("unbound structure `{name}`")))
    }

    /// Resolves the structure named by `path` (all components).
    pub fn lookup_str_path(
        &self,
        path: &Path,
    ) -> Result<(Arc<StructureEnv>, Option<Access>), ElabError> {
        let (mut cur, mut acc) = self.lookup_str_root(path.root())?;
        let mut components: Vec<Symbol> = path.qualifiers.iter().skip(1).copied().collect();
        if !path.is_simple() {
            components.push(path.last);
        }
        for q in components {
            (cur, acc) = substructure(&cur, acc, q)?;
        }
        Ok((cur, acc))
    }

    /// Resolves the structure prefix of a qualified path (everything but
    /// `last`).
    fn lookup_prefix(&self, path: &Path) -> Result<(Arc<StructureEnv>, Option<Access>), ElabError> {
        let (mut cur, mut acc) = self.lookup_str_root(path.qualifiers[0])?;
        for q in &path.qualifiers[1..] {
            (cur, acc) = substructure(&cur, acc, *q)?;
        }
        Ok((cur, acc))
    }

    pub fn lookup_val(&self, path: &Path) -> Result<(ValBind, Option<Access>), ElabError> {
        if path.is_simple() {
            let name = path.last;
            for frame in self.frames.iter().rev() {
                if let Some((_, vb, a)) = frame.vals.iter().rev().find(|(n, _, _)| *n == name) {
                    return Ok((vb.clone(), a.clone()));
                }
            }
            if let Some(vb) = self.perv.bindings.val(name) {
                return Ok((vb.clone(), None));
            }
            return Err(ElabError::new(format!("unbound variable `{name}`")));
        }
        let (str_env, acc) = self.lookup_prefix(path)?;
        let member = str_env
            .layout()
            .val(path.last)
            .ok_or_else(|| ElabError::new(format!("structure has no value `{}`", path.last)))?;
        let vb = &str_env.bindings.vals[member.pos as usize].1;
        let access = match vb.kind {
            ValKind::Con { .. } | ValKind::Prim(_) => None,
            ValKind::Plain | ValKind::Exn => {
                let slot = member
                    .slot
                    .ok_or_else(|| ElabError::new("internal: value without slot"))?;
                Some(
                    acc.ok_or_else(|| {
                        ElabError::new(format!(
                            "`{path}` has no runtime access (signature-only context)"
                        ))
                    })?
                    .field(slot),
                )
            }
        };
        Ok((vb.clone(), access))
    }

    pub fn lookup_tycon(&self, path: &Path) -> Result<Arc<Tycon>, ElabError> {
        if path.is_simple() {
            let name = path.last;
            for frame in self.frames.iter().rev() {
                if let Some((_, tc)) = frame.tycons.iter().rev().find(|(n, _)| *n == name) {
                    return Ok(tc.clone());
                }
            }
            if let Some(tc) = self.perv.bindings.tycon(name) {
                return Ok(tc.clone());
            }
            return Err(ElabError::new(format!("unbound type constructor `{name}`")));
        }
        let (str_env, _) = self.lookup_prefix(path)?;
        str_env
            .bindings
            .tycon(path.last)
            .cloned()
            .ok_or_else(|| ElabError::new(format!("structure has no type `{}`", path.last)))
    }

    pub fn lookup_sig(&self, name: Symbol) -> Result<Arc<SignatureEnv>, ElabError> {
        for frame in self.frames.iter().rev() {
            if let Some((_, s)) = frame.sigs.iter().rev().find(|(n, _)| *n == name) {
                return Ok(s.clone());
            }
        }
        // Under shadowing (interactive sessions) the latest import wins.
        let mut hit = None;
        for u in &self.imports.units {
            if let Some(s) = u.exports.sig(name) {
                hit = Some(s.clone());
                if !self.imports.shadowing {
                    break;
                }
            }
        }
        hit.ok_or_else(|| ElabError::new(format!("unbound signature `{name}`")))
    }

    pub fn lookup_fct(&self, name: Symbol) -> Result<(Arc<FunctorEnv>, Option<Access>), ElabError> {
        for frame in self.frames.iter().rev() {
            if let Some((_, f, a)) = frame.fcts.iter().rev().find(|(n, _, _)| *n == name) {
                return Ok((f.clone(), a.clone()));
            }
        }
        if let Some((slot, member, u)) = self.import_member(name, Layout::fct)? {
            let f = u.exports.fcts[member.pos as usize].1.clone();
            let base = Access::Local(self.import_lvars[slot as usize]);
            return Ok((f, member.slot.map(|m| base.field(m))));
        }
        Err(ElabError::new(format!("unbound functor `{name}`")))
    }
}

fn cur_name(s: &StructureEnv) -> String {
    format!("<structure {}>", s.stamp)
}

/// Steps from structure `cur` (reached by `acc`) into its substructure `q`.
fn substructure(
    cur: &StructureEnv,
    acc: Option<Access>,
    q: Symbol,
) -> Result<(Arc<StructureEnv>, Option<Access>), ElabError> {
    let member = cur.layout().str(q).ok_or_else(|| {
        ElabError::new(format!(
            "structure `{}` has no substructure `{q}`",
            cur_name(cur)
        ))
    })?;
    let slot = member
        .slot
        .ok_or_else(|| ElabError::new("internal: substructure without slot"))?;
    let sub = cur.bindings.strs[member.pos as usize].1.clone();
    Ok((sub, acc.map(|a| a.field(slot))))
}

/// Builds the IR coercing a record laid out per `actual` into one laid out
/// per `view` (signature thinning; §2's ascription, and argument passing
/// at functor applications).
pub(crate) fn coerce_ir(
    el: &mut Elaborator<'_>,
    actual: &StructureEnv,
    view: &StructureEnv,
    base: Ir,
) -> Result<Ir, ElabError> {
    if same_layout(&actual.bindings, &view.bindings) {
        return Ok(base);
    }
    let v = el.fresh_lvar();
    let body = build_view_record(el, actual, view, &Access::Local(v))?;
    Ok(Ir::Let(
        vec![IrDec::Val(smlsc_dynamics::ir::IrPat::Var(v), base)],
        Box::new(body),
    ))
}

/// Each view slot finds its actual member through `actual`'s memoized
/// layout, so a structure of n members coerces in O(n log n).
fn build_view_record(
    el: &mut Elaborator<'_>,
    actual: &StructureEnv,
    view: &StructureEnv,
    base: &Access,
) -> Result<Ir, ElabError> {
    let mut view_slots = Vec::new();
    visit_slots(&view.bindings, |slot, pos| view_slots.push((slot, pos)));
    let layout = actual.layout();
    let mut fields = Vec::with_capacity(view_slots.len());
    for (slot, pos) in view_slots {
        let ir = match slot {
            Slot::Val(name) => {
                let member = layout
                    .val(name)
                    .ok_or_else(|| ElabError::new(format!("coercion: missing value `{name}`")))?;
                match &actual.bindings.vals[member.pos as usize].1.kind {
                    ValKind::Plain | ValKind::Exn => {
                        let s = member
                            .slot
                            .ok_or_else(|| ElabError::new("internal: value without slot"))?;
                        base.field(s).ir()
                    }
                    ValKind::Con { tag, .. } => {
                        if tag.has_arg {
                            Ir::ConFn(*tag)
                        } else {
                            Ir::Con(*tag, None)
                        }
                    }
                    ValKind::Prim(op) => {
                        let v = el.fresh_lvar();
                        Ir::Fn(vec![smlsc_dynamics::ir::IrRule {
                            pat: smlsc_dynamics::ir::IrPat::Var(v),
                            body: Ir::Prim(*op, vec![Ir::Local(v)]),
                        }])
                    }
                }
            }
            Slot::Str(name) => {
                let member = layout.str(name).ok_or_else(|| {
                    ElabError::new(format!("coercion: missing structure `{name}`"))
                })?;
                let astr = &actual.bindings.strs[member.pos as usize].1;
                let vstr = &view.bindings.strs[pos].1;
                let s = member
                    .slot
                    .ok_or_else(|| ElabError::new("internal: structure without slot"))?;
                if same_layout(&astr.bindings, &vstr.bindings) {
                    base.field(s).ir()
                } else {
                    let inner = el.fresh_lvar();
                    let body = build_view_record(el, astr, vstr, &Access::Local(inner))?;
                    Ir::Let(
                        vec![IrDec::Val(
                            smlsc_dynamics::ir::IrPat::Var(inner),
                            base.field(s).ir(),
                        )],
                        Box::new(body),
                    )
                }
            }
            Slot::Fct(name) => {
                let s = layout
                    .fct(name)
                    .and_then(|m| m.slot)
                    .ok_or_else(|| ElabError::new(format!("coercion: missing functor `{name}`")))?;
                base.field(s).ir()
            }
        };
        fields.push(ir);
    }
    Ok(Ir::Record(fields))
}

/// True when both binding sets induce identical runtime layouts (so no
/// coercion record needs to be built).
pub(crate) fn same_layout(a: &Bindings, b: &Bindings) -> bool {
    let mut sa = Vec::new();
    visit_slots(a, |slot, pos| sa.push((slot, pos)));
    let mut sb = Vec::new();
    visit_slots(b, |slot, pos| sb.push((slot, pos)));
    sa.len() == sb.len()
        && sa.iter().zip(&sb).all(|((x, _), (y, _))| x == y)
        && sa.iter().zip(&sb).all(|((slot, pa), (_, pb))| match slot {
            Slot::Str(_) => same_layout(&a.strs[*pa].1.bindings, &b.strs[*pb].1.bindings),
            _ => true,
        })
}
