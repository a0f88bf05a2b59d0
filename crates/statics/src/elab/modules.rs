//! Module-language elaboration: structures, signatures, functors.
//!
//! This is where the paper's §2 semantics lives: transparent signature
//! matching (clients of `FSort = TopSort(Factors)` see `FSort.t = int`),
//! opaque ascription, and generative functor application.

use std::collections::HashMap;
use std::sync::Arc;

use smlsc_dynamics::ir::{Ir, IrDec, IrPat};
use smlsc_ids::{StampGenerator, Symbol};
use smlsc_syntax::ast::{SigExp, Spec, StrDec, StrExp, TopDec, Ty};

use crate::env::{FunctorEnv, SignatureEnv, StructureEnv, ValBind, ValKind};
use crate::error::ElabError;
use crate::realize::Realizer;
use crate::sigmatch::{instantiate, match_structure};
use crate::types::{Scheme, Tycon, TyconDef, Type};

use super::core::TyvarMode;
use super::{coerce_ir, Access, Elaborator, Frame};

impl<'a> Elaborator<'a> {
    pub(crate) fn elab_topdec(
        &mut self,
        dec: &TopDec,
        out: &mut Vec<IrDec>,
    ) -> Result<(), ElabError> {
        match dec {
            TopDec::Signature { name, def, loc } => {
                let sig = self.elab_sigexp(def).map_err(|e| e.at(*loc))?;
                self.cur_frame().sigs.push((*name, sig));
                Ok(())
            }
            TopDec::Structure {
                name,
                constraint,
                def,
                loc,
            } => self
                .elab_structure_binding(*name, constraint.as_ref(), def, out)
                .map_err(|e| e.at(*loc)),
            TopDec::Functor {
                name,
                param,
                param_sig,
                result,
                body,
                loc,
            } => self
                .elab_functor(*name, *param, param_sig, result.as_ref(), body, out)
                .map_err(|e| e.at(*loc)),
        }
    }

    pub(crate) fn elab_structure_binding(
        &mut self,
        name: Symbol,
        constraint: Option<&(SigExp, bool)>,
        def: &StrExp,
        out: &mut Vec<IrDec>,
    ) -> Result<(), ElabError> {
        let (mut env, mut ir) = self.elab_strexp(def)?;
        if let Some((sigexp, opaque)) = constraint {
            let sig = self.elab_sigexp(sigexp)?;
            let m = match_structure(&env, &sig, *opaque)?;
            ir = coerce_ir(self, &env, &m.view, ir)?;
            env = m.view;
        }
        let lv = self.fresh_lvar();
        out.push(IrDec::Val(IrPat::Var(lv), ir));
        self.cur_frame()
            .strs
            .push((name, env, Some(Access::Local(lv))));
        Ok(())
    }

    fn elab_functor(
        &mut self,
        name: Symbol,
        param: Symbol,
        param_sig: &SigExp,
        result: Option<&(SigExp, bool)>,
        body: &StrExp,
        out: &mut Vec<IrDec>,
    ) -> Result<(), ElabError> {
        let sig = self.elab_sigexp(param_sig)?;
        let gen_lo = StampGenerator::peek_raw();
        let (param_inst, skolems) = instantiate(&sig);
        let pl = self.fresh_lvar();
        self.frames.push(Frame::default());
        self.cur_frame()
            .strs
            .push((param, param_inst.clone(), Some(Access::Local(pl))));
        let elaborated = self.elab_strexp(body);
        self.frames.pop();
        let (mut benv, mut bir) = elaborated?;
        if let Some((rsig, opaque)) = result {
            // The result signature may mention the parameter, so elaborate
            // it in a scope where the parameter is visible.
            self.frames.push(Frame::default());
            self.cur_frame()
                .strs
                .push((param, param_inst.clone(), Some(Access::Local(pl))));
            let rs = self.elab_sigexp(rsig);
            self.frames.pop();
            let rs = rs?;
            let m = match_structure(&benv, &rs, *opaque)?;
            bir = coerce_ir(self, &benv, &m.view, bir)?;
            benv = m.view;
        }
        let gen_hi = StampGenerator::peek_raw();
        let fenv = Arc::new(FunctorEnv {
            stamp: self.stamper.fresh(),
            entity_pid: smlsc_ids::PidCell::new(None),
            param_name: param,
            param_sig: sig,
            param_inst,
            skolems,
            body: benv,
            gen_lo,
            gen_hi,
        });
        let lv = self.fresh_lvar();
        out.push(IrDec::Val(
            IrPat::Var(lv),
            Ir::Functor {
                param: pl,
                body: Box::new(bir),
            },
        ));
        self.cur_frame()
            .fcts
            .push((name, fenv, Some(Access::Local(lv))));
        Ok(())
    }

    // ----- structure expressions -------------------------------------------

    pub(crate) fn elab_strexp(
        &mut self,
        se: &StrExp,
    ) -> Result<(Arc<StructureEnv>, Ir), ElabError> {
        match se {
            StrExp::Var(path) => {
                let (env, access) = self.lookup_str_path(path)?;
                let ir = access.map(|a| a.ir()).ok_or_else(|| {
                    ElabError::new(format!("structure `{path}` has no runtime value"))
                })?;
                Ok((env, ir))
            }
            StrExp::Struct(decs) => {
                self.frames.push(Frame::default());
                let mut irdecs = Vec::new();
                let mut result = Ok(());
                for d in decs {
                    result = self.elab_strdec(d, &mut irdecs);
                    if result.is_err() {
                        break;
                    }
                }
                let frame = self.frames.pop().expect("struct frame");
                result?;
                let bindings = frame.to_bindings();
                let record = frame.record_ir(&bindings)?;
                let env = StructureEnv::new(self.stamper.fresh(), bindings);
                Ok((env, Ir::Let(irdecs, Box::new(record))))
            }
            StrExp::Ascribe { str, sig, opaque } => {
                let (env, ir) = self.elab_strexp(str)?;
                let s = self.elab_sigexp(sig)?;
                let m = match_structure(&env, &s, *opaque)?;
                let cir = coerce_ir(self, &env, &m.view, ir)?;
                Ok((m.view, cir))
            }
            StrExp::App(fname, arg) => {
                let (fct, faccess) = self.lookup_fct(*fname)?;
                let (aenv, air) = self.elab_strexp(arg)?;
                let m = match_structure(&aenv, &fct.param_sig, false).map_err(|e| {
                    ElabError::new(format!(
                        "argument of functor `{fname}` does not match its parameter: {}",
                        e.message
                    ))
                })?;
                let carg = coerce_ir(self, &aenv, &m.view, air)?;
                // skolem[i] stands for param_sig.bound[i]; realize the body
                // with the argument's actual tycons and fresh generative
                // entities.
                let mut map = HashMap::new();
                for (sk, b) in fct.skolems.iter().zip(&fct.param_sig.bound) {
                    if let Some(actual) = m.realization.get(b) {
                        map.insert(*sk, actual.clone());
                    }
                }
                let mut r = Realizer::new(map, fct.gen_lo, fct.gen_hi);
                let result = r.structure(&fct.body);
                let fir = faccess.map(|a| a.ir()).ok_or_else(|| {
                    ElabError::new(format!("functor `{fname}` has no runtime value"))
                })?;
                Ok((result, Ir::App(Box::new(fir), Box::new(carg))))
            }
            StrExp::Let(decs, body) => {
                self.frames.push(Frame::default());
                let mut irdecs = Vec::new();
                let mut result = Ok(());
                for d in decs {
                    result = self.elab_strdec(d, &mut irdecs);
                    if result.is_err() {
                        break;
                    }
                }
                let inner = result.and_then(|()| self.elab_strexp(body));
                self.frames.pop();
                let (env, bir) = inner?;
                Ok((env, Ir::Let(irdecs, Box::new(bir))))
            }
        }
    }

    pub(crate) fn elab_strdec(
        &mut self,
        dec: &StrDec,
        out: &mut Vec<IrDec>,
    ) -> Result<(), ElabError> {
        match dec {
            StrDec::Core(d) => self.elab_dec(d, out),
            StrDec::Structure {
                name,
                constraint,
                def,
                loc,
            } => self
                .elab_structure_binding(*name, constraint.as_ref(), def, out)
                .map_err(|e| e.at(*loc)),
        }
    }

    // ----- signature expressions ---------------------------------------------

    pub(crate) fn elab_sigexp(&mut self, se: &SigExp) -> Result<Arc<SignatureEnv>, ElabError> {
        match se {
            SigExp::Var(name) => self.lookup_sig(*name),
            SigExp::Sig(specs) => {
                let lo = StampGenerator::peek_raw();
                let mut bound = Vec::new();
                self.frames.push(Frame::default());
                let mut result = Ok(());
                for spec in specs {
                    result = self.elab_spec(spec, &mut bound);
                    if result.is_err() {
                        break;
                    }
                }
                let frame = self.frames.pop().expect("sig frame");
                result?;
                let body = StructureEnv::new(self.stamper.fresh(), frame.to_bindings());
                let hi = StampGenerator::peek_raw();
                Ok(Arc::new(SignatureEnv {
                    stamp: self.stamper.fresh(),
                    entity_pid: smlsc_ids::PidCell::new(None),
                    bound,
                    body,
                    lo,
                    hi,
                }))
            }
            SigExp::WhereType {
                base,
                tyvars,
                ty_path,
                def,
            } => {
                let base_sig = self.elab_sigexp(base)?;
                // Locate the constrained tycon inside the template.
                let mut cur = base_sig.body.clone();
                for q in &ty_path.qualifiers {
                    cur = cur.bindings.str(*q).cloned().ok_or_else(|| {
                        ElabError::new(format!("`where type`: no substructure `{q}`"))
                    })?;
                }
                let tc = cur.bindings.tycon(ty_path.last).cloned().ok_or_else(|| {
                    ElabError::new(format!("`where type`: no type `{}`", ty_path.last))
                })?;
                if !base_sig.bound.contains(&tc.stamp) {
                    return Err(ElabError::new(format!(
                        "`where type {ty_path}`: type is not flexible in the signature"
                    )));
                }
                if tc.arity != tyvars.len() {
                    return Err(ElabError::new(format!(
                        "`where type {ty_path}`: arity mismatch"
                    )));
                }
                let map: HashMap<Symbol, u32> = tyvars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (*v, i as u32))
                    .collect();
                let body_ty = self.elab_ty(def, &TyvarMode::Params(&map))?;
                let alias = Tycon::new(
                    self.stamper.fresh(),
                    ty_path.last,
                    tyvars.len(),
                    TyconDef::Alias(body_ty),
                );
                // Rebuild the template with the constrained stamp manifest.
                let lo = StampGenerator::peek_raw();
                let mut m = HashMap::new();
                m.insert(tc.stamp, alias);
                let mut r = Realizer::new(m, base_sig.lo, base_sig.hi);
                let new_body = r.structure(&base_sig.body);
                let new_bound = base_sig
                    .bound
                    .iter()
                    .filter(|s| **s != tc.stamp)
                    .map(|s| r.cloned_tycon(*s).map(|t| t.stamp).unwrap_or(*s))
                    .collect();
                let hi = StampGenerator::peek_raw();
                Ok(Arc::new(SignatureEnv {
                    stamp: self.stamper.fresh(),
                    entity_pid: smlsc_ids::PidCell::new(None),
                    bound: new_bound,
                    body: new_body,
                    lo,
                    hi,
                }))
            }
        }
    }

    fn elab_spec(
        &mut self,
        spec: &Spec,
        bound: &mut Vec<smlsc_ids::Stamp>,
    ) -> Result<(), ElabError> {
        match spec {
            Spec::Val(name, ty) => {
                let mut order = Vec::new();
                collect_tyvars(ty, &mut order);
                let map: HashMap<Symbol, u32> = order
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (*v, i as u32))
                    .collect();
                let body = self.elab_ty(ty, &TyvarMode::Params(&map))?;
                self.cur_frame().vals.push((
                    *name,
                    ValBind {
                        scheme: Scheme {
                            arity: order.len() as u32,
                            body,
                        },
                        kind: ValKind::Plain,
                    },
                    None,
                ));
                Ok(())
            }
            Spec::Type { tyvars, name, def } => {
                let tc = match def {
                    None => {
                        let tc = Tycon::new(
                            self.stamper.fresh(),
                            *name,
                            tyvars.len(),
                            TyconDef::Abstract,
                        );
                        bound.push(tc.stamp);
                        tc
                    }
                    Some(ty) => {
                        let map: HashMap<Symbol, u32> = tyvars
                            .iter()
                            .enumerate()
                            .map(|(i, v)| (*v, i as u32))
                            .collect();
                        let body = self.elab_ty(ty, &TyvarMode::Params(&map))?;
                        Tycon::new(
                            self.stamper.fresh(),
                            *name,
                            tyvars.len(),
                            TyconDef::Alias(body),
                        )
                    }
                };
                self.cur_frame().tycons.push((*name, tc));
                Ok(())
            }
            Spec::Datatype(dbs) => {
                self.elab_datbinds(dbs, Some(bound))?;
                Ok(())
            }
            Spec::Exception(name, arg) => {
                let exn = self.perv.exn_ty();
                let empty = HashMap::new();
                let scheme = match arg {
                    None => Scheme::mono(exn),
                    Some(ty) => {
                        let at = self.elab_ty(ty, &TyvarMode::Params(&empty))?;
                        Scheme::mono(Type::Arrow(Box::new(at), Box::new(exn)))
                    }
                };
                self.cur_frame().vals.push((
                    *name,
                    ValBind {
                        scheme,
                        kind: ValKind::Exn,
                    },
                    None,
                ));
                Ok(())
            }
            Spec::Structure(name, se) => {
                let inner = self.elab_sigexp(se)?;
                // Embed a fresh instance so each use of a named signature
                // contributes its own flexible stamps.
                let (inst, skolems) = instantiate(&inner);
                bound.extend(skolems);
                self.cur_frame().strs.push((*name, inst, None));
                Ok(())
            }
            Spec::Include(se) => {
                let inner = self.elab_sigexp(se)?;
                let (inst, skolems) = instantiate(&inner);
                bound.extend(skolems);
                // Splice the instance's bindings into the current frame.
                let b = inst.bindings.clone();
                let frame = self.cur_frame();
                frame
                    .vals
                    .extend(b.vals.into_iter().map(|(n, v)| (n, v, None)));
                frame.tycons.extend(b.tycons);
                frame
                    .strs
                    .extend(b.strs.into_iter().map(|(n, s)| (n, s, None)));
                frame.sigs.extend(b.sigs);
                frame
                    .fcts
                    .extend(b.fcts.into_iter().map(|(n, f)| (n, f, None)));
                Ok(())
            }
        }
    }
}

/// Collects the distinct type variables of a `Ty` in first-occurrence
/// order (implicit quantification of `val` specs).
fn collect_tyvars(ty: &Ty, out: &mut Vec<Symbol>) {
    match ty {
        Ty::Var(v) => {
            if !out.contains(v) {
                out.push(*v);
            }
        }
        Ty::Con(_, args) => {
            for a in args {
                collect_tyvars(a, out);
            }
        }
        Ty::Tuple(ts) => {
            for t in ts {
                collect_tyvars(t, out);
            }
        }
        Ty::Arrow(a, b) => {
            collect_tyvars(a, out);
            collect_tyvars(b, out);
        }
    }
}
