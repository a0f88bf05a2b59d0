//! Signature matching and instantiation.
//!
//! Matching a structure against a signature (§2) discovers a
//! *realization* — which actual tycon each flexible (bound) stamp of the
//! signature stands for — checks every specification, and produces the
//! constrained *view*.  Transparent ascription realizes the view to the
//! actual types (so clients still see `FSort.t = int`); opaque ascription
//! (`:>`) instead instantiates the signature freshly, hiding them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use smlsc_ids::{Stamp, Symbol};

use crate::env::{Bindings, SignatureEnv, StructureEnv, ValKind};
use crate::error::ElabError;
use crate::realize::Realizer;
use crate::types::{unify, Scheme, Tycon, TyconDef, Type};

/// The result of a successful match.
#[derive(Debug)]
pub struct MatchOk {
    /// Realization of the signature's bound stamps.
    pub realization: HashMap<Stamp, Arc<Tycon>>,
    /// The constrained view of the structure (layout = template layout).
    pub view: Arc<StructureEnv>,
}

/// Instantiates a signature with fresh (skolem) tycons.
///
/// Returns the instance structure and the skolem stamps parallel to
/// `sig.bound`.  Used for functor parameters and opaque ascription.
pub fn instantiate(sig: &SignatureEnv) -> (Arc<StructureEnv>, Vec<Stamp>) {
    let mut r = Realizer::new(HashMap::new(), sig.lo, sig.hi);
    let inst = r.structure(&sig.body);
    let skolems = sig
        .bound
        .iter()
        .map(|s| {
            r.cloned_tycon(*s)
                .map(|tc| tc.stamp)
                // A bound stamp not reached during realization can only
                // come from a malformed template; keep the old stamp so
                // downstream lookups fail loudly rather than silently.
                .unwrap_or(*s)
        })
        .collect();
    (inst, skolems)
}

/// Matches `actual` against `sig`.
///
/// `opaque` selects `:>` semantics: the returned view's flexible types are
/// fresh abstractions instead of the actual realizations.
///
/// # Errors
///
/// Returns an [`ElabError`] naming the first missing or mismatched
/// component.
pub fn match_structure(
    actual: &Arc<StructureEnv>,
    sig: &Arc<SignatureEnv>,
    opaque: bool,
) -> Result<MatchOk, ElabError> {
    let bound: HashSet<Stamp> = sig.bound.iter().copied().collect();
    let mut realization = HashMap::new();
    discover(
        &sig.body.bindings,
        &actual.bindings,
        &bound,
        &mut realization,
        "",
    )?;

    // Realize the template with the discovered realization.
    let mut r = Realizer::new(realization.clone(), sig.lo, sig.hi);
    let view = r.structure(&sig.body);

    // Check every specification against the actual structure.
    check(&view.bindings, actual, "")?;

    let view = if opaque {
        // Fresh abstraction: a brand-new instance of the signature.  The
        // runtime coercion is identical; only the types are hidden.
        let (inst, _) = instantiate(sig);
        inst
    } else {
        view
    };
    Ok(MatchOk { realization, view })
}

fn path_of(prefix: &str, name: Symbol) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Phase 1: walk template vs. actual, mapping flexible stamps to actual
/// tycons.
fn discover(
    template: &Bindings,
    actual: &Bindings,
    bound: &HashSet<Stamp>,
    realization: &mut HashMap<Stamp, Arc<Tycon>>,
    prefix: &str,
) -> Result<(), ElabError> {
    for (name, ttc) in &template.tycons {
        let Some(atc) = actual.tycon(*name) else {
            return Err(ElabError::new(format!(
                "signature mismatch: missing type `{}`",
                path_of(prefix, *name)
            )));
        };
        if bound.contains(&ttc.stamp) {
            if atc.arity != ttc.arity {
                return Err(ElabError::new(format!(
                    "signature mismatch: type `{}` has arity {}, spec requires {}",
                    path_of(prefix, *name),
                    atc.arity,
                    ttc.arity
                )));
            }
            if let TyconDef::Datatype(tinfo) = &*ttc.def.read() {
                // A datatype spec additionally pins the constructors.
                let Some(ainfo) = atc.datatype_info() else {
                    return Err(ElabError::new(format!(
                        "signature mismatch: `{}` must be a datatype",
                        path_of(prefix, *name)
                    )));
                };
                if tinfo.cons.len() != ainfo.cons.len()
                    || tinfo
                        .cons
                        .iter()
                        .zip(&ainfo.cons)
                        .any(|(t, a)| t.name != a.name || t.arg.is_some() != a.arg.is_some())
                {
                    return Err(ElabError::new(format!(
                        "signature mismatch: datatype `{}` has different constructors",
                        path_of(prefix, *name)
                    )));
                }
            }
            realization.insert(ttc.stamp, atc.clone());
        }
    }
    for (name, tstr) in &template.strs {
        let Some(astr) = actual.str(*name) else {
            return Err(ElabError::new(format!(
                "signature mismatch: missing structure `{}`",
                path_of(prefix, *name)
            )));
        };
        discover(
            &tstr.bindings,
            &astr.bindings,
            bound,
            realization,
            &path_of(prefix, *name),
        )?;
    }
    Ok(())
}

/// Phase 2: the realized view's specs must hold of the actual structure.
///
/// Values and substructures are found through `actual`'s memoized layout
/// index, so a signature of n specs checks in O(n log n).
fn check(view: &Bindings, actual: &StructureEnv, prefix: &str) -> Result<(), ElabError> {
    // Manifest types must agree (flexible ones were realized *to* the
    // actual tycons, so checking is vacuous for them).
    for (name, vtc) in &view.tycons {
        let atc = actual.bindings.tycon(*name).expect("checked in discover");
        if !tycon_equal(vtc, atc) {
            return Err(ElabError::new(format!(
                "signature mismatch: type `{}` does not match its specification",
                path_of(prefix, *name)
            )));
        }
    }
    for (name, vspec) in &view.vals {
        let Some(avb) = actual.val(*name) else {
            return Err(ElabError::new(format!(
                "signature mismatch: missing value `{}`",
                path_of(prefix, *name)
            )));
        };
        match (&vspec.kind, &avb.kind) {
            (ValKind::Con { tag: tspec, .. }, ValKind::Con { tag: ta, .. }) => {
                if tspec.tag != ta.tag || tspec.has_arg != ta.has_arg {
                    return Err(ElabError::new(format!(
                        "signature mismatch: constructor `{}` differs",
                        path_of(prefix, *name)
                    )));
                }
            }
            (ValKind::Con { .. }, _) => {
                return Err(ElabError::new(format!(
                    "signature mismatch: `{}` must be a constructor",
                    path_of(prefix, *name)
                )));
            }
            (ValKind::Exn, ValKind::Exn) => {}
            (ValKind::Exn, _) => {
                return Err(ElabError::new(format!(
                    "signature mismatch: `{}` must be an exception",
                    path_of(prefix, *name)
                )));
            }
            (ValKind::Plain | ValKind::Prim(_), _) => {}
        }
        if !scheme_matches(&avb.scheme, &vspec.scheme) {
            return Err(ElabError::new(format!(
                "signature mismatch: value `{}` has type {}, spec requires {}",
                path_of(prefix, *name),
                crate::types::format_scheme(&avb.scheme),
                crate::types::format_scheme(&vspec.scheme),
            )));
        }
    }
    for (name, vstr) in &view.strs {
        let astr = actual.str(*name).expect("checked in discover");
        check(&vstr.bindings, astr, &path_of(prefix, *name))?;
    }
    Ok(())
}

/// Type-constructor equality up to alias expansion, checked by applying
/// both to the same rigid parameters.
pub fn tycon_equal(a: &Arc<Tycon>, b: &Arc<Tycon>) -> bool {
    if a.stamp == b.stamp {
        return true;
    }
    if a.arity != b.arity {
        return false;
    }
    let params: Vec<Type> = (0..a.arity)
        .map(|_| {
            Type::Con(
                Tycon::new(
                    smlsc_ids::StampGenerator::global_fresh(),
                    Symbol::intern("?rigid"),
                    0,
                    TyconDef::Abstract,
                ),
                vec![],
            )
        })
        .collect();
    let ta = Type::Con(a.clone(), params.clone());
    let tb = Type::Con(b.clone(), params);
    unify(&ta, &tb).is_ok()
}

/// `actual` is at least as general as `spec`: instantiating `spec` with
/// rigid skolems must unify with a fresh instance of `actual`.
pub fn scheme_matches(actual: &Scheme, spec: &Scheme) -> bool {
    let skolems: Vec<Type> = (0..spec.arity)
        .map(|i| {
            Type::Con(
                Tycon::new(
                    smlsc_ids::StampGenerator::global_fresh(),
                    Symbol::intern(&format!("?sk{i}")),
                    0,
                    TyconDef::Abstract,
                ),
                vec![],
            )
        })
        .collect();
    let spec_ty = spec.instantiate_with(&skolems);
    let actual_ty = actual.instantiate(u32::MAX);
    unify(&actual_ty, &spec_ty).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pervasive::pervasives;

    #[test]
    fn scheme_generality() {
        let p = pervasives();
        // actual: ∀a. a -> a ; spec: int -> int  — matches.
        let id = Scheme {
            arity: 1,
            body: Type::Arrow(Box::new(Type::Param(0)), Box::new(Type::Param(0))),
        };
        let mono = Scheme::mono(Type::Arrow(Box::new(p.int_ty()), Box::new(p.int_ty())));
        assert!(scheme_matches(&id, &mono));
        // And not the other way around.
        assert!(!scheme_matches(&mono, &id));
    }

    #[test]
    fn scheme_same_poly_matches() {
        let id = || Scheme {
            arity: 1,
            body: Type::Arrow(Box::new(Type::Param(0)), Box::new(Type::Param(0))),
        };
        assert!(scheme_matches(&id(), &id()));
    }

    #[test]
    fn tycon_equality_sees_through_aliases() {
        let p = pervasives();
        let alias = Tycon::new(
            smlsc_ids::StampGenerator::global_fresh(),
            Symbol::intern("t"),
            0,
            TyconDef::Alias(p.int_ty()),
        );
        assert!(tycon_equal(&alias, &p.int));
        assert!(!tycon_equal(&alias, &p.string));
    }

    #[test]
    fn parametric_alias_equality() {
        let p = pervasives();
        // type 'a t = 'a list  vs  list
        let alias = Tycon::new(
            smlsc_ids::StampGenerator::global_fresh(),
            Symbol::intern("t"),
            1,
            TyconDef::Alias(Type::Con(p.list.clone(), vec![Type::Param(0)])),
        );
        assert!(tycon_equal(&alias, &p.list));
    }
}
