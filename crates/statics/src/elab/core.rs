//! Core-language elaboration: expressions, patterns, declarations.

use std::collections::HashMap;
use std::sync::Arc;

use smlsc_dynamics::ir::{ConTag, Ir, IrDec, IrPat, IrRule, LVar};
use smlsc_ids::Symbol;
use smlsc_syntax::ast::{Clause, DatBind, Dec, Exp, FunBind, Lit, Pat, PrimOp, Rule, Ty};

use crate::env::{ValBind, ValKind};
use crate::error::ElabError;
use crate::types::{
    format_type, generalize, subst_params, unify, ConDef, DatatypeInfo, Scheme, Tycon, TyconDef,
    Type, UnifyError,
};

use super::{Access, Elaborator};

/// How type variables in a `Ty` AST are interpreted.
pub(crate) enum TyvarMode<'m> {
    /// `'a` must be one of the declared parameters (datatype/type/spec).
    Params(&'m HashMap<Symbol, u32>),
    /// `'a` denotes a scoped unification variable (expression contexts).
    UVars,
}

impl<'a> Elaborator<'a> {
    fn unify_err(&self, e: UnifyError) -> ElabError {
        ElabError::new(e.to_string())
    }

    // ----- types ------------------------------------------------------------

    pub(crate) fn elab_ty(&mut self, ty: &Ty, mode: &TyvarMode<'_>) -> Result<Type, ElabError> {
        match ty {
            Ty::Var(name) => match mode {
                TyvarMode::Params(map) => map
                    .get(name)
                    .map(|i| Type::Param(*i))
                    .ok_or_else(|| ElabError::new(format!("unbound type variable `'{name}`"))),
                TyvarMode::UVars => {
                    if let Some(t) = self.tyvars.iter().rev().find_map(|scope| scope.get(name)) {
                        return Ok(t.clone());
                    }
                    let t = Type::fresh(self.level);
                    self.tyvars
                        .last_mut()
                        .expect("tyvar scope")
                        .insert(*name, t.clone());
                    Ok(t)
                }
            },
            Ty::Con(path, args) => {
                let tc = self.lookup_tycon(path)?;
                if tc.arity != args.len() {
                    return Err(ElabError::new(format!(
                        "type constructor `{path}` expects {} argument(s), got {}",
                        tc.arity,
                        args.len()
                    )));
                }
                let args = args
                    .iter()
                    .map(|a| self.elab_ty(a, mode))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Type::Con(tc, args))
            }
            Ty::Tuple(ts) => Ok(Type::Tuple(
                ts.iter()
                    .map(|t| self.elab_ty(t, mode))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            Ty::Arrow(a, b) => Ok(Type::Arrow(
                Box::new(self.elab_ty(a, mode)?),
                Box::new(self.elab_ty(b, mode)?),
            )),
        }
    }

    // ----- expressions --------------------------------------------------------

    pub(crate) fn elab_exp(&mut self, exp: &Exp) -> Result<(Type, Ir), ElabError> {
        match exp {
            Exp::Lit(l) => Ok(self.elab_lit(l)),
            Exp::Var(path) => {
                let (vb, access) = self.lookup_val(path)?;
                let ty = vb.scheme.instantiate(self.level);
                let ir = match &vb.kind {
                    ValKind::Plain | ValKind::Exn => access
                        .as_ref()
                        .map(Access::ir)
                        .ok_or_else(|| ElabError::new(format!("`{path}` has no runtime value")))?,
                    ValKind::Con { tag, .. } => {
                        if tag.has_arg {
                            Ir::ConFn(*tag)
                        } else {
                            Ir::Con(*tag, None)
                        }
                    }
                    // Eta-expand a first-class primitive.
                    ValKind::Prim(op) => {
                        let v = self.fresh_lvar();
                        Ir::Fn(vec![IrRule {
                            pat: IrPat::Var(v),
                            body: Ir::Prim(*op, vec![Ir::Local(v)]),
                        }])
                    }
                };
                Ok((ty, ir))
            }
            Exp::Tuple(es) => {
                let mut tys = Vec::new();
                let mut irs = Vec::new();
                for e in es {
                    let (t, ir) = self.elab_exp(e)?;
                    tys.push(t);
                    irs.push(ir);
                }
                Ok((Type::Tuple(tys), Ir::Tuple(irs)))
            }
            Exp::List(es) => {
                let elem = Type::fresh(self.level);
                let mut irs = Vec::new();
                for e in es {
                    let (t, ir) = self.elab_exp(e)?;
                    unify(&t, &elem).map_err(|e| self.unify_err(e))?;
                    irs.push(ir);
                }
                let nil = self.perv.nil_tag();
                let cons = self.perv.cons_tag();
                let list_ir = irs.into_iter().rev().fold(Ir::Con(nil, None), |acc, x| {
                    Ir::Con(cons, Some(Box::new(Ir::Tuple(vec![x, acc]))))
                });
                Ok((self.perv.list_ty(elem), list_ir))
            }
            Exp::App(f, a) => {
                // Direct constructor application avoids a closure.
                if let Exp::Var(path) = f.as_ref() {
                    if let Ok((vb, access)) = self.lookup_val(path) {
                        match &vb.kind {
                            ValKind::Con { tag, .. } if tag.has_arg => {
                                let con_ty = vb.scheme.instantiate(self.level);
                                let Type::Arrow(at, rt) = con_ty.head_normalize() else {
                                    return Err(ElabError::new("constructor type is not an arrow"));
                                };
                                let (t, ir) = self.elab_exp(a)?;
                                unify(&t, &at).map_err(|e| self.unify_err(e))?;
                                return Ok((*rt, Ir::Con(*tag, Some(Box::new(ir)))));
                            }
                            ValKind::Prim(op) => {
                                // Direct primitive application avoids the
                                // eta closure.
                                let prim_ty = vb.scheme.instantiate(self.level);
                                let Type::Arrow(at, rt) = prim_ty.head_normalize() else {
                                    return Err(ElabError::new("primitive type is not an arrow"));
                                };
                                let (t, ir) = self.elab_exp(a)?;
                                unify(&t, &at).map_err(|e| self.unify_err(e))?;
                                return Ok((*rt, Ir::Prim(*op, vec![ir])));
                            }
                            ValKind::Exn => {
                                // Fall through to generic application using
                                // the exception constructor's slot value.
                                let _ = access;
                            }
                            _ => {}
                        }
                    }
                }
                let (ft, fir) = self.elab_exp(f)?;
                let (at, air) = self.elab_exp(a)?;
                let rt = Type::fresh(self.level);
                unify(&ft, &Type::Arrow(Box::new(at), Box::new(rt.clone())))
                    .map_err(|e| self.unify_err(e))?;
                Ok((rt, Ir::App(Box::new(fir), Box::new(air))))
            }
            Exp::Prim(op, args) => self.elab_prim(*op, args),
            Exp::Andalso(a, b) => {
                let (ta, ia) = self.elab_exp(a)?;
                let (tb, ib) = self.elab_exp(b)?;
                unify(&ta, &self.perv.bool_ty()).map_err(|e| self.unify_err(e))?;
                unify(&tb, &self.perv.bool_ty()).map_err(|e| self.unify_err(e))?;
                let f = Ir::Con(self.perv.bool_tag(false), None);
                Ok((
                    self.perv.bool_ty(),
                    Ir::If(Box::new(ia), Box::new(ib), Box::new(f)),
                ))
            }
            Exp::Orelse(a, b) => {
                let (ta, ia) = self.elab_exp(a)?;
                let (tb, ib) = self.elab_exp(b)?;
                unify(&ta, &self.perv.bool_ty()).map_err(|e| self.unify_err(e))?;
                unify(&tb, &self.perv.bool_ty()).map_err(|e| self.unify_err(e))?;
                let t = Ir::Con(self.perv.bool_tag(true), None);
                Ok((
                    self.perv.bool_ty(),
                    Ir::If(Box::new(ia), Box::new(t), Box::new(ib)),
                ))
            }
            Exp::Fn(rules) => {
                let arg = Type::fresh(self.level);
                let res = Type::fresh(self.level);
                let irrules = self.elab_rules(rules, &arg, &res)?;
                self.check_match("fn expression", &irrules);
                Ok((Type::Arrow(Box::new(arg), Box::new(res)), Ir::Fn(irrules)))
            }
            Exp::Let(decs, body) => {
                self.frames.push(super::Frame::default());
                let mut irdecs = Vec::new();
                for d in decs {
                    self.elab_dec(d, &mut irdecs)?;
                }
                let (t, bir) = self.elab_exp(body)?;
                self.frames.pop();
                Ok((t, Ir::Let(irdecs, Box::new(bir))))
            }
            Exp::If(c, t, e) => {
                let (tc, ic) = self.elab_exp(c)?;
                unify(&tc, &self.perv.bool_ty()).map_err(|e| self.unify_err(e))?;
                let (tt, it) = self.elab_exp(t)?;
                let (te, ie) = self.elab_exp(e)?;
                unify(&tt, &te).map_err(|e| self.unify_err(e))?;
                Ok((tt, Ir::If(Box::new(ic), Box::new(it), Box::new(ie))))
            }
            Exp::Case(scrut, rules) => {
                let (ts, is) = self.elab_exp(scrut)?;
                let res = Type::fresh(self.level);
                let irrules = self.elab_rules(rules, &ts, &res)?;
                self.check_match("case expression", &irrules);
                Ok((res, Ir::Case(Box::new(is), irrules)))
            }
            Exp::Raise(e) => {
                let (t, ir) = self.elab_exp(e)?;
                unify(&t, &self.perv.exn_ty()).map_err(|e| self.unify_err(e))?;
                Ok((Type::fresh(self.level), Ir::Raise(Box::new(ir))))
            }
            Exp::Handle(e, rules) => {
                let (t, ir) = self.elab_exp(e)?;
                let exn = self.perv.exn_ty();
                let irrules = self.elab_rules(rules, &exn, &t)?;
                Ok((t, Ir::Handle(Box::new(ir), irrules)))
            }
            Exp::Seq(es) => {
                let mut last_ty = self.perv.unit_ty();
                let mut irs = Vec::new();
                for e in es {
                    let (t, ir) = self.elab_exp(e)?;
                    last_ty = t;
                    irs.push(ir);
                }
                Ok((last_ty, Ir::Seq(irs)))
            }
            Exp::Ascribe(e, ty) => {
                let (t, ir) = self.elab_exp(e)?;
                let want = self.elab_ty(ty, &TyvarMode::UVars)?;
                unify(&t, &want).map_err(|e| self.unify_err(e))?;
                Ok((want, ir))
            }
        }
    }

    fn elab_lit(&self, l: &Lit) -> (Type, Ir) {
        match l {
            Lit::Int(n) => (self.perv.int_ty(), Ir::Int(*n)),
            Lit::Str(s) => (self.perv.string_ty(), Ir::Str(s.clone())),
            Lit::Unit => (self.perv.unit_ty(), Ir::Unit),
        }
    }

    fn elab_prim(&mut self, op: PrimOp, args: &[Exp]) -> Result<(Type, Ir), ElabError> {
        use PrimOp::*;
        let mut tys = Vec::new();
        let mut irs = Vec::new();
        for a in args {
            let (t, ir) = self.elab_exp(a)?;
            tys.push(t);
            irs.push(ir);
        }
        let int = self.perv.int_ty();
        let string = self.perv.string_ty();
        let bool_ty = self.perv.bool_ty();
        let result = match op {
            Neg => {
                unify(&tys[0], &int).map_err(|e| self.unify_err(e))?;
                int
            }
            Add | Sub | Mul | Div | Mod => {
                unify(&tys[0], &int).map_err(|e| self.unify_err(e))?;
                unify(&tys[1], &int).map_err(|e| self.unify_err(e))?;
                int
            }
            Concat => {
                unify(&tys[0], &string).map_err(|e| self.unify_err(e))?;
                unify(&tys[1], &string).map_err(|e| self.unify_err(e))?;
                string
            }
            Lt | Le | Gt | Ge => {
                unify(&tys[0], &tys[1]).map_err(|e| self.unify_err(e))?;
                // Overloaded over int and string; default to int when
                // unconstrained (SML's default overloading).
                match tys[0].head_normalize() {
                    Type::UVar(_) => {
                        unify(&tys[0], &int).map_err(|e| self.unify_err(e))?;
                    }
                    Type::Con(tc, _)
                        if tc.stamp == self.perv.int.stamp
                            || tc.stamp == self.perv.string.stamp => {}
                    other => {
                        return Err(ElabError::new(format!(
                            "comparison requires int or string, got {}",
                            format_type(&other)
                        )))
                    }
                }
                bool_ty
            }
            Eq | Neq => {
                unify(&tys[0], &tys[1]).map_err(|e| self.unify_err(e))?;
                bool_ty
            }
            Append => {
                let elem = Type::fresh(self.level);
                let list = self.perv.list_ty(elem);
                unify(&tys[0], &list).map_err(|e| self.unify_err(e))?;
                unify(&tys[1], &list).map_err(|e| self.unify_err(e))?;
                list
            }
            ItoS => {
                unify(&tys[0], &int).map_err(|e| self.unify_err(e))?;
                string
            }
            Size => {
                unify(&tys[0], &string).map_err(|e| self.unify_err(e))?;
                int
            }
        };
        Ok((result, Ir::Prim(op, irs)))
    }

    /// Runs exhaustiveness/redundancy analysis on an elaborated match and
    /// records warnings.  `handle` matches are never checked (falling
    /// through re-raises by design).
    pub(crate) fn check_match(&mut self, what: &str, rules: &[IrRule]) {
        let analysis = crate::matchcomp::analyze_match(rules);
        if analysis.inexhaustive {
            self.warn(format!("{what}: match is not exhaustive"));
        }
        for i in analysis.redundant {
            self.warn(format!("{what}: rule {} is redundant", i + 1));
        }
    }

    /// Elaborates a match (used by `fn`, `case`, `handle`).
    pub(crate) fn elab_rules(
        &mut self,
        rules: &[Rule],
        arg_ty: &Type,
        res_ty: &Type,
    ) -> Result<Vec<IrRule>, ElabError> {
        let mut out = Vec::new();
        for r in rules {
            let mut binds = Vec::new();
            let (pt, irpat) = self.elab_pat(&r.pat, &mut binds)?;
            unify(&pt, arg_ty).map_err(|e| self.unify_err(e))?;
            self.frames.push(super::Frame::default());
            for (name, lv, ty) in &binds {
                self.cur_frame().vals.push((
                    *name,
                    ValBind {
                        scheme: Scheme::mono(ty.clone()),
                        kind: ValKind::Plain,
                    },
                    Some(Access::Local(*lv)),
                ));
            }
            let body = self.elab_exp(&r.exp);
            self.frames.pop();
            let (bt, bir) = body?;
            unify(&bt, res_ty).map_err(|e| self.unify_err(e))?;
            out.push(IrRule {
                pat: irpat,
                body: bir,
            });
        }
        Ok(out)
    }

    // ----- patterns -------------------------------------------------------------

    pub(crate) fn elab_pat(
        &mut self,
        pat: &Pat,
        binds: &mut Vec<(Symbol, LVar, Type)>,
    ) -> Result<(Type, IrPat), ElabError> {
        match pat {
            Pat::Wild => Ok((Type::fresh(self.level), IrPat::Wild)),
            Pat::Lit(l) => {
                let (t, _) = self.elab_lit(l);
                let p = match l {
                    Lit::Int(n) => IrPat::Int(*n),
                    Lit::Str(s) => IrPat::Str(s.clone()),
                    Lit::Unit => IrPat::Unit,
                };
                Ok((t, p))
            }
            Pat::Var(path) => {
                // A name bound as a constructor is a constructor pattern;
                // anything else (when unqualified) is a binder.
                if let Ok((vb, access)) = self.lookup_val(path) {
                    match &vb.kind {
                        ValKind::Con { tag, .. } => {
                            if tag.has_arg {
                                return Err(ElabError::new(format!(
                                    "constructor `{path}` expects an argument in patterns"
                                )));
                            }
                            return Ok((vb.scheme.instantiate(self.level), IrPat::Con(*tag, None)));
                        }
                        ValKind::Exn => {
                            let t = vb.scheme.instantiate(self.level);
                            if matches!(t.head_normalize(), Type::Arrow(..)) {
                                return Err(ElabError::new(format!(
                                    "exception `{path}` expects an argument in patterns"
                                )));
                            }
                            let acc = access.ok_or_else(|| {
                                ElabError::new(format!("exception `{path}` has no runtime access"))
                            })?;
                            return Ok((self.perv.exn_ty(), IrPat::Exn(Box::new(acc.ir()), None)));
                        }
                        ValKind::Plain | ValKind::Prim(_) => {}
                    }
                }
                if !path.is_simple() {
                    return Err(ElabError::new(format!(
                        "`{path}` is not a constructor and qualified names cannot bind"
                    )));
                }
                if binds.iter().any(|(n, _, _)| *n == path.last) {
                    return Err(ElabError::new(format!(
                        "duplicate variable `{}` in pattern",
                        path.last
                    )));
                }
                let lv = self.fresh_lvar();
                let t = Type::fresh(self.level);
                binds.push((path.last, lv, t.clone()));
                Ok((t, IrPat::Var(lv)))
            }
            Pat::Tuple(ps) => {
                let mut tys = Vec::new();
                let mut irs = Vec::new();
                for p in ps {
                    let (t, ir) = self.elab_pat(p, binds)?;
                    tys.push(t);
                    irs.push(ir);
                }
                Ok((Type::Tuple(tys), IrPat::Tuple(irs)))
            }
            Pat::List(ps) => {
                let elem = Type::fresh(self.level);
                let mut irs = Vec::new();
                for p in ps {
                    let (t, ir) = self.elab_pat(p, binds)?;
                    unify(&t, &elem).map_err(|e| self.unify_err(e))?;
                    irs.push(ir);
                }
                let nil = self.perv.nil_tag();
                let cons = self.perv.cons_tag();
                let pat = irs.into_iter().rev().fold(IrPat::Con(nil, None), |acc, x| {
                    IrPat::Con(cons, Some(Box::new(IrPat::Tuple(vec![x, acc]))))
                });
                Ok((self.perv.list_ty(elem), pat))
            }
            Pat::Con(path, argp) => {
                let (vb, access) = self.lookup_val(path)?;
                match &vb.kind {
                    ValKind::Con { tag, .. } => {
                        if !tag.has_arg {
                            return Err(ElabError::new(format!(
                                "constructor `{path}` takes no argument"
                            )));
                        }
                        let con_ty = vb.scheme.instantiate(self.level);
                        let Type::Arrow(at, rt) = con_ty.head_normalize() else {
                            return Err(ElabError::new("constructor type is not an arrow"));
                        };
                        let (t, irp) = self.elab_pat(argp, binds)?;
                        unify(&t, &at).map_err(|e| self.unify_err(e))?;
                        Ok((*rt, IrPat::Con(*tag, Some(Box::new(irp)))))
                    }
                    ValKind::Exn => {
                        let t = vb.scheme.instantiate(self.level);
                        let Type::Arrow(at, _) = t.head_normalize() else {
                            return Err(ElabError::new(format!(
                                "exception `{path}` takes no argument"
                            )));
                        };
                        let (pt, irp) = self.elab_pat(argp, binds)?;
                        unify(&pt, &at).map_err(|e| self.unify_err(e))?;
                        let acc = access.ok_or_else(|| {
                            ElabError::new(format!("exception `{path}` has no runtime access"))
                        })?;
                        Ok((
                            self.perv.exn_ty(),
                            IrPat::Exn(Box::new(acc.ir()), Some(Box::new(irp))),
                        ))
                    }
                    ValKind::Plain | ValKind::Prim(_) => {
                        Err(ElabError::new(format!("`{path}` is not a constructor")))
                    }
                }
            }
            Pat::Ascribe(p, ty) => {
                let (t, irp) = self.elab_pat(p, binds)?;
                let want = self.elab_ty(ty, &TyvarMode::UVars)?;
                unify(&t, &want).map_err(|e| self.unify_err(e))?;
                Ok((want, irp))
            }
            Pat::As(name, inner) => {
                let lv = self.fresh_lvar();
                let (t, irp) = self.elab_pat(inner, binds)?;
                // The layered name must not collide with anything the
                // sub-pattern (or siblings) bound.
                if binds.iter().any(|(n, _, _)| n == name) {
                    return Err(ElabError::new(format!(
                        "duplicate variable `{name}` in pattern"
                    )));
                }
                binds.push((*name, lv, t.clone()));
                Ok((t, IrPat::As(lv, Box::new(irp))))
            }
        }
    }

    // ----- declarations -----------------------------------------------------------

    pub(crate) fn elab_dec(&mut self, dec: &Dec, out: &mut Vec<IrDec>) -> Result<(), ElabError> {
        match dec {
            Dec::Val { pat, exp, loc } => {
                self.level += 1;
                self.tyvars.push(HashMap::new());
                let res = (|| {
                    let (et, eir) = self.elab_exp(exp)?;
                    let mut binds = Vec::new();
                    let (pt, irpat) = self.elab_pat(pat, &mut binds)?;
                    unify(&et, &pt).map_err(|e| self.unify_err(e))?;
                    Ok((eir, irpat, binds))
                })();
                self.tyvars.pop();
                self.level -= 1;
                let (eir, irpat, binds) = res.map_err(|e: ElabError| e.at(*loc))?;
                if !crate::matchcomp::irrefutable(&irpat) {
                    self.warn(format!(
                        "val binding at {loc} may fail: the pattern is refutable"
                    ));
                }
                let generalizable = nonexpansive(exp);
                for (name, lv, ty) in binds {
                    let scheme = if generalizable {
                        generalize(self.level, &ty)
                    } else {
                        Scheme::mono(ty)
                    };
                    self.cur_frame().vals.push((
                        name,
                        ValBind {
                            scheme,
                            kind: ValKind::Plain,
                        },
                        Some(Access::Local(lv)),
                    ));
                }
                out.push(IrDec::Val(irpat, eir));
                Ok(())
            }
            Dec::Fun(fbs) => self.elab_funbinds(fbs, out),
            Dec::Type { tyvars, name, def } => {
                let map: HashMap<Symbol, u32> = tyvars
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (*v, i as u32))
                    .collect();
                let body = self.elab_ty(def, &TyvarMode::Params(&map))?;
                let tc = Tycon::new(
                    self.stamper.fresh(),
                    *name,
                    tyvars.len(),
                    TyconDef::Alias(body),
                );
                self.cur_frame().tycons.push((*name, tc));
                Ok(())
            }
            Dec::Datatype(dbs) => {
                self.elab_datbinds(dbs, None)?;
                Ok(())
            }
            Dec::Exception { name, arg } => {
                let exn = self.perv.exn_ty();
                let empty = HashMap::new();
                let (scheme, has_arg) = match arg {
                    None => (Scheme::mono(exn), false),
                    Some(ty) => {
                        let at = self.elab_ty(ty, &TyvarMode::Params(&empty))?;
                        (Scheme::mono(Type::Arrow(Box::new(at), Box::new(exn))), true)
                    }
                };
                let lv = self.fresh_lvar();
                out.push(IrDec::Exception {
                    lvar: lv,
                    name: *name,
                    has_arg,
                });
                self.cur_frame().vals.push((
                    *name,
                    ValBind {
                        scheme,
                        kind: ValKind::Exn,
                    },
                    Some(Access::Local(lv)),
                ));
                Ok(())
            }
            Dec::Local(hidden, visible) => {
                self.frames.push(super::Frame::default());
                for d in hidden {
                    self.elab_dec(d, out)?;
                }
                self.frames.push(super::Frame::default());
                for d in visible {
                    self.elab_dec(d, out)?;
                }
                let vis = self.frames.pop().expect("visible frame");
                self.frames.pop();
                let outer = self.cur_frame();
                outer.vals.extend(vis.vals);
                outer.tycons.extend(vis.tycons);
                outer.strs.extend(vis.strs);
                outer.sigs.extend(vis.sigs);
                outer.fcts.extend(vis.fcts);
                Ok(())
            }
            Dec::Open(paths) => {
                for path in paths {
                    let (str_env, access) = self.lookup_str_path(path)?;
                    self.open_structure(&str_env, access)?;
                }
                Ok(())
            }
        }
    }

    /// Splices a structure's bindings into the current frame, deriving
    /// member accesses from the structure's access.
    pub(crate) fn open_structure(
        &mut self,
        str_env: &Arc<crate::env::StructureEnv>,
        access: Option<Access>,
    ) -> Result<(), ElabError> {
        let b = &str_env.bindings;
        let layout = str_env.layout();
        // A shadowed binding gets its name's (last binding's) slot; the
        // later entry in the frame hides it anyway.
        let field = |member: Option<crate::env::Member>| {
            let slot = member?.slot?;
            access.as_ref().map(|a| a.field(slot))
        };
        let entries: Vec<(Symbol, ValBind, Option<Access>)> = b
            .vals
            .iter()
            .map(|(n, vb)| {
                let acc = match vb.kind {
                    ValKind::Con { .. } | ValKind::Prim(_) => None,
                    ValKind::Plain | ValKind::Exn => field(layout.val(*n)),
                };
                (*n, vb.clone(), acc)
            })
            .collect();
        let strs: Vec<_> = b
            .strs
            .iter()
            .map(|(n, s)| (*n, s.clone(), field(layout.str(*n))))
            .collect();
        let fcts: Vec<_> = b
            .fcts
            .iter()
            .map(|(n, f)| (*n, f.clone(), field(layout.fct(*n))))
            .collect();
        let frame = self.cur_frame();
        frame.vals.extend(entries);
        frame.tycons.extend(b.tycons.iter().cloned());
        frame.strs.extend(strs);
        frame.sigs.extend(b.sigs.iter().cloned());
        frame.fcts.extend(fcts);
        Ok(())
    }

    fn elab_funbinds(&mut self, fbs: &[FunBind], out: &mut Vec<IrDec>) -> Result<(), ElabError> {
        self.level += 1;
        self.tyvars.push(HashMap::new());
        // Bind every function monomorphically for the recursive group.
        let fn_tys: Vec<Type> = fbs.iter().map(|_| Type::fresh(self.level)).collect();
        let lvars: Vec<LVar> = fbs.iter().map(|_| self.fresh_lvar()).collect();
        self.frames.push(super::Frame::default());
        for ((fb, ty), lv) in fbs.iter().zip(&fn_tys).zip(&lvars) {
            self.cur_frame().vals.push((
                fb.name,
                ValBind {
                    scheme: Scheme::mono(ty.clone()),
                    kind: ValKind::Plain,
                },
                Some(Access::Local(*lv)),
            ));
        }
        let compiled: Result<Vec<Vec<IrRule>>, ElabError> = fbs
            .iter()
            .zip(&fn_tys)
            .map(|(fb, ty)| self.compile_clauses(fb, ty).map_err(|e| e.at(fb.loc)))
            .collect();
        self.frames.pop();
        self.tyvars.pop();
        self.level -= 1;
        let compiled = compiled?;
        out.push(IrDec::Fix(lvars.iter().copied().zip(compiled).collect()));
        for ((fb, ty), lv) in fbs.iter().zip(&fn_tys).zip(&lvars) {
            let scheme = generalize(self.level, ty);
            self.cur_frame().vals.push((
                fb.name,
                ValBind {
                    scheme,
                    kind: ValKind::Plain,
                },
                Some(Access::Local(*lv)),
            ));
        }
        Ok(())
    }

    /// Compiles the clauses of one `fun` binding into the rules of its
    /// outermost lambda; multi-parameter clause groups become nested
    /// lambdas over a tuple-matching `case`.
    fn compile_clauses(&mut self, fb: &FunBind, fn_ty: &Type) -> Result<Vec<IrRule>, ElabError> {
        let arity = fb.clauses[0].params.len();
        if arity == 1 {
            let arg = Type::fresh(self.level);
            let res = Type::fresh(self.level);
            unify(
                fn_ty,
                &Type::Arrow(Box::new(arg.clone()), Box::new(res.clone())),
            )
            .map_err(|e| self.unify_err(e))?;
            let mut rules = Vec::new();
            for cl in &fb.clauses {
                rules.push(self.elab_clause_rule(cl, std::slice::from_ref(&arg), &res)?);
            }
            self.check_match(&format!("function `{}`", fb.name), &rules);
            return Ok(rules);
        }
        // Curried: t1 -> t2 -> ... -> res
        let param_tys: Vec<Type> = (0..arity).map(|_| Type::fresh(self.level)).collect();
        let res = Type::fresh(self.level);
        let full = param_tys.iter().rev().fold(res.clone(), |acc, t| {
            Type::Arrow(Box::new(t.clone()), Box::new(acc))
        });
        unify(fn_ty, &full).map_err(|e| self.unify_err(e))?;
        let mut case_rules = Vec::new();
        for cl in &fb.clauses {
            case_rules.push(self.elab_clause_rule(cl, &param_tys, &res)?);
        }
        self.check_match(&format!("function `{}`", fb.name), &case_rules);
        let param_lvars: Vec<LVar> = (0..arity).map(|_| self.fresh_lvar()).collect();
        let scrut = Ir::Tuple(param_lvars.iter().map(|v| Ir::Local(*v)).collect());
        let mut body = Ir::Case(Box::new(scrut), case_rules);
        for lv in param_lvars.iter().skip(1).rev() {
            body = Ir::Fn(vec![IrRule {
                pat: IrPat::Var(*lv),
                body,
            }]);
        }
        Ok(vec![IrRule {
            pat: IrPat::Var(param_lvars[0]),
            body,
        }])
    }

    /// Elaborates one clause into a rule matching the tuple of its
    /// parameters (or the single parameter when `param_tys.len() == 1`).
    fn elab_clause_rule(
        &mut self,
        cl: &Clause,
        param_tys: &[Type],
        res: &Type,
    ) -> Result<IrRule, ElabError> {
        let mut binds = Vec::new();
        let mut irpats = Vec::new();
        for (p, want) in cl.params.iter().zip(param_tys) {
            let (t, irp) = self.elab_pat(p, &mut binds)?;
            unify(&t, want).map_err(|e| self.unify_err(e))?;
            irpats.push(irp);
        }
        self.frames.push(super::Frame::default());
        for (name, lv, ty) in &binds {
            self.cur_frame().vals.push((
                *name,
                ValBind {
                    scheme: Scheme::mono(ty.clone()),
                    kind: ValKind::Plain,
                },
                Some(Access::Local(*lv)),
            ));
        }
        let body = (|| {
            let (bt, bir) = self.elab_exp(&cl.body)?;
            if let Some(rt) = &cl.result_ty {
                let want = self.elab_ty(rt, &TyvarMode::UVars)?;
                unify(&bt, &want).map_err(|e| self.unify_err(e))?;
            }
            unify(&bt, res).map_err(|e| self.unify_err(e))?;
            Ok(bir)
        })();
        self.frames.pop();
        let bir = body?;
        let pat = if irpats.len() == 1 {
            irpats.pop().expect("one pattern")
        } else {
            IrPat::Tuple(irpats)
        };
        Ok(IrRule { pat, body: bir })
    }

    /// Elaborates a (possibly mutually recursive) datatype group; when
    /// `bound` is provided (signature specs), the new stamps are recorded
    /// as flexible.
    pub(crate) fn elab_datbinds(
        &mut self,
        dbs: &[DatBind],
        mut bound: Option<&mut Vec<smlsc_ids::Stamp>>,
    ) -> Result<Vec<Arc<Tycon>>, ElabError> {
        // Phase 1: allocate all tycons so constructors can reference the
        // whole group.
        let mut tycons = Vec::new();
        for db in dbs {
            let tc = Tycon::new(
                self.stamper.fresh(),
                db.name,
                db.tyvars.len(),
                TyconDef::Abstract,
            );
            self.cur_frame().tycons.push((db.name, tc.clone()));
            if let Some(b) = bound.as_deref_mut() {
                b.push(tc.stamp);
            }
            tycons.push(tc);
        }
        // Phase 2: elaborate constructors and fill definitions.
        for (db, tc) in dbs.iter().zip(&tycons) {
            let map: HashMap<Symbol, u32> = db
                .tyvars
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, i as u32))
                .collect();
            let mut cons = Vec::new();
            for (name, arg) in &db.cons {
                let arg_ty = match arg {
                    None => None,
                    Some(ty) => Some(self.elab_ty(ty, &TyvarMode::Params(&map))?),
                };
                cons.push(ConDef {
                    name: *name,
                    arg: arg_ty,
                });
            }
            let span = cons.len() as u32;
            *tc.def.write() = TyconDef::Datatype(DatatypeInfo { cons: cons.clone() });
            // Bind the constructors as values.
            let params: Vec<Type> = (0..db.tyvars.len() as u32).map(Type::Param).collect();
            let data_ty = Type::Con(tc.clone(), params);
            for (i, c) in cons.iter().enumerate() {
                let body = match &c.arg {
                    None => data_ty.clone(),
                    Some(at) => Type::Arrow(
                        Box::new(subst_params(
                            at,
                            &(0..db.tyvars.len() as u32)
                                .map(Type::Param)
                                .collect::<Vec<_>>(),
                        )),
                        Box::new(data_ty.clone()),
                    ),
                };
                let tag = ConTag {
                    tag: i as u32,
                    span,
                    has_arg: c.arg.is_some(),
                    name: c.name,
                };
                self.cur_frame().vals.push((
                    c.name,
                    ValBind {
                        scheme: Scheme {
                            arity: db.tyvars.len() as u32,
                            body,
                        },
                        kind: ValKind::Con {
                            tycon: tc.clone(),
                            tag,
                        },
                    },
                    None,
                ));
            }
        }
        Ok(tycons)
    }
}

/// SML's value restriction: only syntactic values may be generalized.
pub(crate) fn nonexpansive(e: &Exp) -> bool {
    match e {
        Exp::Lit(_) | Exp::Var(_) | Exp::Fn(_) => true,
        Exp::Tuple(es) | Exp::List(es) => es.iter().all(nonexpansive),
        Exp::Ascribe(e, _) => nonexpansive(e),
        // Constructor application of a value is a value; conservatively we
        // accept `Var applied to nonexpansive` only when the head is a bare
        // variable (the elaborator will have ensured it is a constructor or
        // this is a (possibly effectful) call — being conservative here only
        // costs polymorphism, never soundness... but a function call CAN
        // allocate a ref in a richer language, so restrict to constructor
        // syntax: a single application whose head is a capitalized-looking
        // path is still not decidable syntactically. Be conservative.
        _ => false,
    }
}
