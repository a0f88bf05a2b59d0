//! Import analysis: the free module-level names of a compilation unit.
//!
//! §8 of the paper: the IRM "analyzes dependencies among the source files
//! ... automatically" — no makefiles.  A unit's imports are exactly the
//! structure, signature and functor names it mentions but does not bind.
//! Core-level unqualified names never escape a unit (footnote 4: units
//! contain only module bindings), so free *module* names suffice.
//!
//! Shadowing is respected per namespace: a functor parameter `P` hides an
//! outer structure `P` inside the functor body, a `let`-bound structure
//! hides an import inside its scope, and so on.

use std::collections::BTreeSet;

use smlsc_ids::{Digest128, Pid, Symbol};

use crate::ast::*;
use crate::lexer::{SpannedTok, Tok};

/// Digests the token stream of `src`, ignoring whitespace, comments, and
/// token positions: two sources that lex to the same tokens get the same
/// pid even when their raw bytes (and hence their source pids) differ.
///
/// The IRM uses this to keep a cached dependency analysis alive across
/// comment-only and reformatting edits — imports and exports are derived
/// from the token stream, so an equal token pid guarantees an equal
/// analysis.  Returns `None` when the source does not lex; such a unit
/// must be re-analyzed the slow way (and will fail there with a proper
/// diagnostic).  See [`digest_tokens`] for the byte format.
///
/// # Examples
///
/// ```
/// let a = smlsc_syntax::deps::token_pid("structure A = struct end").unwrap();
/// let b = smlsc_syntax::deps::token_pid(
///     "(* new comment *) structure A =\n  struct end",
/// )
/// .unwrap();
/// assert_eq!(a, b);
/// ```
pub fn token_pid(src: &str) -> Option<Pid> {
    Some(digest_tokens(&crate::lexer::lex(src).ok()?))
}

/// Digests an already-lexed token stream; [`token_pid`] of the source it
/// came from.
///
/// Each token contributes one tag byte from the explicit table of
/// `token_tag` (never `mem::discriminant`, which no compiler promises
/// to keep stable), then its payload: identifiers, type variables and
/// string literals as a length-prefixed UTF-8 string, integers as a
/// little-endian `i64`.  Locations are excluded, so comment edits that
/// shift positions keep the pid.  The tag keeps `Int 1` apart from
/// `Ident "1"`, the length prefix keeps `"ab" "c"` apart from `"a" "bc"`,
/// and the token count closes the stream.
pub fn digest_tokens(toks: &[SpannedTok]) -> Pid {
    let mut d = Digest128::new();
    for t in toks {
        d.write_tag(token_tag(&t.tok));
        match &t.tok {
            Tok::Ident(s) | Tok::TyVar(s) => d.write_str(s.as_str()),
            Tok::Str(s) => d.write_str(s),
            Tok::Int(n) => d.write_u64(*n as u64),
            _ => {}
        }
    }
    d.write_u64(toks.len() as u64);
    d.finish_pid()
}

/// The digest tag of each token kind.  Part of the token-pid format:
/// changing a value changes every persisted deps pid, so it needs a bump
/// of the stamp-file version that stores them.
fn token_tag(tok: &Tok) -> u8 {
    match tok {
        Tok::Eof => 0,
        Tok::Ident(_) => 1,
        Tok::TyVar(_) => 2,
        Tok::Int(_) => 3,
        Tok::Str(_) => 4,
        Tok::And => 10,
        Tok::As => 11,
        Tok::Andalso => 12,
        Tok::Case => 13,
        Tok::Datatype => 14,
        Tok::Div => 15,
        Tok::Else => 16,
        Tok::End => 17,
        Tok::Exception => 18,
        Tok::Fn => 19,
        Tok::Fun => 20,
        Tok::Functor => 21,
        Tok::Handle => 22,
        Tok::If => 23,
        Tok::In => 24,
        Tok::Include => 25,
        Tok::Let => 26,
        Tok::Local => 27,
        Tok::Mod => 28,
        Tok::Of => 29,
        Tok::Open => 30,
        Tok::Orelse => 31,
        Tok::Raise => 32,
        Tok::Sig => 33,
        Tok::Signature => 34,
        Tok::Struct => 35,
        Tok::Structure => 36,
        Tok::Then => 37,
        Tok::Type => 38,
        Tok::Val => 39,
        Tok::Where => 40,
        Tok::LParen => 60,
        Tok::RParen => 61,
        Tok::LBracket => 62,
        Tok::RBracket => 63,
        Tok::Comma => 64,
        Tok::Semi => 65,
        Tok::Dot => 66,
        Tok::Colon => 67,
        Tok::ColonGt => 68,
        Tok::Eq => 69,
        Tok::FatArrow => 70,
        Tok::Arrow => 71,
        Tok::Bar => 72,
        Tok::Star => 73,
        Tok::Plus => 74,
        Tok::Minus => 75,
        Tok::Slash => 76,
        Tok::Caret => 77,
        Tok::Lt => 78,
        Tok::Le => 79,
        Tok::Gt => 80,
        Tok::Ge => 81,
        Tok::Neq => 82,
        Tok::Cons => 83,
        Tok::At => 84,
        Tok::Tilde => 85,
        Tok::Underscore => 86,
    }
}

/// Returns the free module-level names of `unit`, sorted by name.
///
/// These are the names the unit imports: every structure, signature or
/// functor referenced but not bound by the unit itself.
///
/// # Examples
///
/// ```
/// let unit = smlsc_syntax::parse_unit(
///     "structure B : S = struct val y = A.x end",
/// ).unwrap();
/// let free = smlsc_syntax::deps::free_module_names(&unit);
/// let names: Vec<&str> = free.iter().map(|s| s.as_str()).collect();
/// assert_eq!(names, vec!["A", "S"]);
/// ```
pub fn free_module_names(unit: &UnitAst) -> Vec<Symbol> {
    let mut c = Collector::new();
    for dec in &unit.decs {
        c.topdec(dec);
    }
    let mut v: Vec<Symbol> = c.free.into_iter().collect();
    v.sort_by_key(|s| s.as_str());
    v
}

/// One lexical scope's worth of module bindings, split by namespace.
#[derive(Default)]
struct Scope {
    strs: BTreeSet<Symbol>,
    sigs: BTreeSet<Symbol>,
    fcts: BTreeSet<Symbol>,
}

struct Collector {
    scopes: Vec<Scope>,
    free: BTreeSet<Symbol>,
}

#[derive(Clone, Copy)]
enum Ns {
    Str,
    Sig,
    Fct,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            scopes: vec![Scope::default()],
            free: BTreeSet::new(),
        }
    }

    fn push(&mut self) {
        self.scopes.push(Scope::default());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn bind(&mut self, ns: Ns, name: Symbol) {
        let top = self.scopes.last_mut().expect("at least one scope");
        match ns {
            Ns::Str => top.strs.insert(name),
            Ns::Sig => top.sigs.insert(name),
            Ns::Fct => top.fcts.insert(name),
        };
    }

    fn is_bound(&self, ns: Ns, name: Symbol) -> bool {
        self.scopes.iter().rev().any(|s| match ns {
            Ns::Str => s.strs.contains(&name),
            Ns::Sig => s.sigs.contains(&name),
            Ns::Fct => s.fcts.contains(&name),
        })
    }

    fn reference(&mut self, ns: Ns, name: Symbol) {
        if !self.is_bound(ns, name) {
            self.free.insert(name);
        }
    }

    /// A qualified path's root is a structure reference; unqualified value
    /// or type names are core-level and never unit imports.
    fn path(&mut self, p: &Path) {
        if !p.is_simple() {
            self.reference(Ns::Str, p.root());
        }
    }

    /// A path in *structure position* is a structure reference even when
    /// unqualified.
    fn str_path(&mut self, p: &Path) {
        self.reference(Ns::Str, p.root());
    }

    fn topdec(&mut self, d: &TopDec) {
        match d {
            TopDec::Signature { name, def, .. } => {
                self.sigexp(def);
                self.bind(Ns::Sig, *name);
            }
            TopDec::Structure {
                name,
                constraint,
                def,
                ..
            } => {
                if let Some((sig, _)) = constraint {
                    self.sigexp(sig);
                }
                self.strexp(def);
                self.bind(Ns::Str, *name);
            }
            TopDec::Functor {
                name,
                param,
                param_sig,
                result,
                body,
                ..
            } => {
                self.sigexp(param_sig);
                self.push();
                self.bind(Ns::Str, *param);
                if let Some((sig, _)) = result {
                    self.sigexp(sig);
                }
                self.strexp(body);
                self.pop();
                self.bind(Ns::Fct, *name);
            }
        }
    }

    fn sigexp(&mut self, s: &SigExp) {
        match s {
            SigExp::Var(name) => self.reference(Ns::Sig, *name),
            SigExp::Sig(specs) => {
                self.push();
                for spec in specs {
                    self.spec(spec);
                }
                self.pop();
            }
            SigExp::WhereType {
                base, ty_path, def, ..
            } => {
                self.sigexp(base);
                // The constrained type lives *inside* the signature; only its
                // definition can mention imports.
                let _ = ty_path;
                self.ty(def);
            }
        }
    }

    fn spec(&mut self, s: &Spec) {
        match s {
            Spec::Val(_, ty) => self.ty(ty),
            Spec::Type { def, .. } => {
                if let Some(t) = def {
                    self.ty(t);
                }
            }
            Spec::Datatype(dbs) => {
                for db in dbs {
                    for (_, arg) in &db.cons {
                        if let Some(t) = arg {
                            self.ty(t);
                        }
                    }
                }
            }
            Spec::Exception(_, arg) => {
                if let Some(t) = arg {
                    self.ty(t);
                }
            }
            Spec::Structure(name, sig) => {
                self.sigexp(sig);
                self.bind(Ns::Str, *name);
            }
            Spec::Include(sig) => self.sigexp(sig),
        }
    }

    fn strexp(&mut self, s: &StrExp) {
        match s {
            StrExp::Var(p) => self.str_path(p),
            StrExp::Struct(decs) => {
                self.push();
                for d in decs {
                    self.strdec(d);
                }
                self.pop();
            }
            StrExp::Ascribe { str, sig, .. } => {
                self.strexp(str);
                self.sigexp(sig);
            }
            StrExp::App(f, arg) => {
                self.reference(Ns::Fct, *f);
                self.strexp(arg);
            }
            StrExp::Let(decs, body) => {
                self.push();
                for d in decs {
                    self.strdec(d);
                }
                self.strexp(body);
                self.pop();
            }
        }
    }

    fn strdec(&mut self, d: &StrDec) {
        match d {
            StrDec::Core(dec) => self.dec(dec),
            StrDec::Structure {
                name,
                constraint,
                def,
                ..
            } => {
                if let Some((sig, _)) = constraint {
                    self.sigexp(sig);
                }
                self.strexp(def);
                self.bind(Ns::Str, *name);
            }
        }
    }

    fn dec(&mut self, d: &Dec) {
        match d {
            Dec::Val { pat, exp, .. } => {
                self.pat(pat);
                self.exp(exp);
            }
            Dec::Fun(fbs) => {
                for fb in fbs {
                    for cl in &fb.clauses {
                        for p in &cl.params {
                            self.pat(p);
                        }
                        if let Some(t) = &cl.result_ty {
                            self.ty(t);
                        }
                        self.exp(&cl.body);
                    }
                }
            }
            Dec::Type { def, .. } => self.ty(def),
            Dec::Datatype(dbs) => {
                for db in dbs {
                    for (_, arg) in &db.cons {
                        if let Some(t) = arg {
                            self.ty(t);
                        }
                    }
                }
            }
            Dec::Exception { arg, .. } => {
                if let Some(t) = arg {
                    self.ty(t);
                }
            }
            Dec::Local(hidden, visible) => {
                for d in hidden {
                    self.dec(d);
                }
                for d in visible {
                    self.dec(d);
                }
            }
            Dec::Open(paths) => {
                for p in paths {
                    self.str_path(p);
                }
            }
        }
    }

    fn pat(&mut self, p: &Pat) {
        match p {
            Pat::Wild | Pat::Lit(_) => {}
            Pat::Var(path) => self.path(path),
            Pat::Tuple(ps) | Pat::List(ps) => {
                for p in ps {
                    self.pat(p);
                }
            }
            Pat::Con(path, arg) => {
                self.path(path);
                self.pat(arg);
            }
            Pat::Ascribe(p, ty) => {
                self.pat(p);
                self.ty(ty);
            }
            Pat::As(_, p) => self.pat(p),
        }
    }

    fn exp(&mut self, e: &Exp) {
        match e {
            Exp::Lit(_) => {}
            Exp::Var(p) => self.path(p),
            Exp::Tuple(es) | Exp::List(es) | Exp::Seq(es) | Exp::Prim(_, es) => {
                for e in es {
                    self.exp(e);
                }
            }
            Exp::App(f, a) => {
                self.exp(f);
                self.exp(a);
            }
            Exp::Andalso(a, b) | Exp::Orelse(a, b) => {
                self.exp(a);
                self.exp(b);
            }
            Exp::Fn(rules) => self.rules(rules),
            Exp::Let(decs, body) => {
                self.push();
                for d in decs {
                    self.dec(d);
                }
                self.exp(body);
                self.pop();
            }
            Exp::If(c, t, e2) => {
                self.exp(c);
                self.exp(t);
                self.exp(e2);
            }
            Exp::Case(scrut, rules) => {
                self.exp(scrut);
                self.rules(rules);
            }
            Exp::Raise(e) => self.exp(e),
            Exp::Handle(e, rules) => {
                self.exp(e);
                self.rules(rules);
            }
            Exp::Ascribe(e, ty) => {
                self.exp(e);
                self.ty(ty);
            }
        }
    }

    fn rules(&mut self, rules: &[Rule]) {
        for r in rules {
            self.pat(&r.pat);
            self.exp(&r.exp);
        }
    }

    fn ty(&mut self, t: &Ty) {
        match t {
            Ty::Var(_) => {}
            Ty::Con(p, args) => {
                self.path(p);
                for a in args {
                    self.ty(a);
                }
            }
            Ty::Tuple(ts) => {
                for t in ts {
                    self.ty(t);
                }
            }
            Ty::Arrow(a, b) => {
                self.ty(a);
                self.ty(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_unit;

    fn free(src: &str) -> Vec<&'static str> {
        free_module_names(&parse_unit(src).unwrap())
            .into_iter()
            .map(|s| s.as_str())
            .collect()
    }

    #[test]
    fn closed_unit_has_no_imports() {
        assert!(free("structure A = struct val x = 1 end").is_empty());
    }

    #[test]
    fn qualified_value_reference_is_an_import() {
        assert_eq!(free("structure B = struct val y = A.x end"), vec!["A"]);
    }

    #[test]
    fn signature_reference_is_an_import() {
        assert_eq!(free("structure B : S = struct val y = 1 end"), vec!["S"]);
    }

    #[test]
    fn functor_application_imports_functor_and_argument() {
        assert_eq!(free("structure C = F(A)"), vec!["A", "F"]);
    }

    #[test]
    fn locally_bound_names_are_not_imports() {
        assert!(free(
            "signature S = sig val x : int end
             structure A : S = struct val x = 1 end
             structure B = struct val y = A.x end"
        )
        .is_empty());
    }

    #[test]
    fn functor_parameter_shadows() {
        assert!(free("functor F (P : sig val x : int end) = struct val y = P.x end").is_empty());
    }

    #[test]
    fn functor_parameter_shadowing_is_scoped() {
        // P free in the second functor? No — each binds its own P; but the
        // reference to Q escapes.
        assert_eq!(
            free("functor F (P : sig val x : int end) = struct val y = P.x + Q.z end"),
            vec!["Q"]
        );
    }

    #[test]
    fn type_references_count() {
        assert_eq!(
            free("structure B = struct val f = fn (x : A.t) => x end"),
            vec!["A"]
        );
    }

    #[test]
    fn open_is_an_import() {
        assert_eq!(free("structure B = struct open A val y = x end"), vec!["A"]);
    }

    #[test]
    fn where_type_rhs_can_import() {
        assert_eq!(
            free(
                "signature T = sig type t end
                 structure B : T where type t = A.u = struct type t = A.u end"
            ),
            vec!["A"]
        );
    }

    #[test]
    fn let_bound_structures_do_not_leak() {
        assert!(free(
            "structure A = let structure H = struct val x = 1 end
                           in struct val y = H.x end end"
        )
        .is_empty());
    }

    #[test]
    fn nested_structure_binding_shadows() {
        assert!(free(
            "structure A = struct
               structure Inner = struct val x = 1 end
               val y = Inner.x
             end"
        )
        .is_empty());
    }

    #[test]
    fn deep_qualified_path_only_imports_root() {
        assert_eq!(free("structure B = struct val y = A.C.D.x end"), vec!["A"]);
    }

    #[test]
    fn figure_one_dependencies() {
        let src = "structure FSort : SORT = TopSort(Factors)";
        assert_eq!(free(src), vec!["Factors", "SORT", "TopSort"]);
    }

    #[test]
    fn token_pid_ignores_comments_and_whitespace() {
        let a = token_pid("structure A = struct val x = 1 end").unwrap();
        let b = token_pid("(* c *) structure A =\n  struct\n  val x = 1 end\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn token_pid_sees_semantic_edits() {
        let a = token_pid("structure A = struct val x = 1 end").unwrap();
        let b = token_pid("structure A = struct val x = 2 end").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn token_pid_distinguishes_identifier_splits() {
        // "ab c" and "a bc" must not collide via concatenation.
        assert_ne!(
            token_pid("structure Ab = C").unwrap(),
            token_pid("structure A = Bc").unwrap()
        );
    }

    /// Pins the token-pid format: a change here silently invalidates
    /// every persisted deps pid, so it must come with a stamp-version bump.
    #[test]
    fn token_pid_golden_value() {
        let src = "structure A : S = struct val x = ~12 val s = \"hi\" fun f 'a = A.x :: [] end";
        let got = token_pid(src).unwrap();
        assert_eq!(format!("{got:032x}"), "2d8d34ae06d5a55decdb93a7b4646130");

        // The byte stream, spelled out: tag, payload, ..., token count.
        let mut bytes = vec![39u8]; // val
        bytes.push(1); // identifier "x"
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(b'x');
        bytes.push(69); // =
        bytes.push(3); // integer ~12
        bytes.extend_from_slice(&(-12i64).to_le_bytes());
        bytes.push(0); // end of input
        bytes.extend_from_slice(&5u64.to_le_bytes());
        let mut d = Digest128::new();
        d.write_bytes(&bytes);
        assert_eq!(token_pid("val x = ~12"), Some(d.finish_pid()));
    }

    #[test]
    fn token_pid_ignores_nested_comments_and_tabs() {
        let a = token_pid("structure A = struct fun f x = x + 1 end").unwrap();
        let b = token_pid("structure\tA (* a (* nested *) c *) =\r\n struct fun f x =\n\n x+1 end")
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn token_tags_are_distinct() {
        let every_kind = "and as andalso case datatype div else end exception fn fun functor \
            handle if in include let local mod of open orelse raise sig signature struct \
            structure then type val where ( ) [ ] , ; . : :> = => -> | * + - / ^ < <= > >= \
            <> :: @ ~ _ x 'a 1 \"s\"";
        let toks = crate::lexer::lex(every_kind).unwrap();
        let tags: BTreeSet<u8> = toks.iter().map(|t| token_tag(&t.tok)).collect();
        assert_eq!(tags.len(), toks.len(), "one tag per token kind");
    }

    #[test]
    fn token_digest_separates_kinds_and_string_splits() {
        let spanned = |toks: Vec<Tok>| -> Vec<SpannedTok> {
            toks.into_iter()
                .map(|tok| SpannedTok {
                    tok,
                    loc: crate::Loc::default(),
                })
                .collect()
        };
        assert_ne!(
            digest_tokens(&spanned(vec![Tok::Int(1)])),
            digest_tokens(&spanned(vec![Tok::Ident(Symbol::intern("1"))]))
        );
        assert_ne!(
            digest_tokens(&spanned(vec![Tok::Ident(Symbol::intern("a"))])),
            digest_tokens(&spanned(vec![Tok::TyVar(Symbol::intern("a"))]))
        );
        assert_ne!(
            token_pid("val s = \"ab\" \"c\"").unwrap(),
            token_pid("val s = \"a\" \"bc\"").unwrap()
        );
        assert_ne!(
            token_pid("val n = 1").unwrap(),
            token_pid("val n = ~1").unwrap()
        );
    }

    #[test]
    fn token_pid_of_unlexable_source_is_none() {
        assert!(token_pid("val s = \"unterminated").is_none());
    }
}
