//! Recursive-descent parser for mini-SML.
//!
//! Grammar layering for expressions follows SML's default fixities:
//! application binds tightest, then `* div mod` (7), `+ - ^` (6),
//! `:: @` (5, right-associative), comparisons (4), `andalso`, `orelse`,
//! `handle`, with `raise`/`if`/`case`/`fn` extending maximally to the
//! right.  Module-language syntax covers signature/structure/functor
//! bindings, `sig`/`struct` expressions, both ascriptions, functor
//! application, `include`, and `where type`.

use std::fmt;

use smlsc_ids::Symbol;

use crate::ast::*;
use crate::lexer::{lex, LexError, SpannedTok, Tok};
use crate::Loc;

/// A parse (or lexical) error with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Source location of the offending token.
    pub loc: Loc,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            loc: e.loc,
        }
    }
}

/// The pieces of a `structure X [: S | :> S] = strexp` binding.
type StructureBinding = (Symbol, Option<(SigExp, bool)>, StrExp);

/// Parses a compilation unit: a sequence of `signature`, `structure` and
/// `functor` bindings (optionally separated by `;`).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error encountered.
///
/// # Examples
///
/// ```
/// let unit = smlsc_syntax::parse_unit(
///     "structure A = struct val x = 1 + 2 end",
/// ).unwrap();
/// assert_eq!(unit.decs.len(), 1);
/// ```
pub fn parse_unit(src: &str) -> Result<UnitAst, ParseError> {
    parse_tokens(lex(src)?)
}

/// Parses an already-lexed unit: the output of [`lex`], ending in
/// [`Tok::Eof`].  Lets a caller that also digests the tokens
/// ([`crate::deps::digest_tokens`]) lex the source only once.
///
/// # Errors
///
/// Returns a [`ParseError`] on a syntax error.
pub fn parse_tokens(toks: Vec<SpannedTok>) -> Result<UnitAst, ParseError> {
    let mut p = Parser { toks, pos: 0 };
    let mut decs = Vec::new();
    loop {
        while p.eat(&Tok::Semi) {}
        if p.at(&Tok::Eof) {
            break;
        }
        decs.push(p.topdec()?);
    }
    Ok(UnitAst { decs })
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn cur(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn cur_loc(&self) -> Loc {
        self.toks[self.pos].loc
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.cur() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.cur())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            loc: self.cur_loc(),
        }
    }

    fn ident(&mut self) -> Result<Symbol, ParseError> {
        match self.cur() {
            Tok::Ident(s) => {
                let s = *s;
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected an identifier, found {other}"))),
        }
    }

    /// `A.B.x` — a dot-separated path.
    fn path(&mut self) -> Result<Path, ParseError> {
        let mut parts = vec![self.ident()?];
        while self.at(&Tok::Dot) {
            self.bump();
            parts.push(self.ident()?);
        }
        let last = parts.pop().expect("at least one component");
        Ok(Path {
            qualifiers: parts,
            last,
        })
    }

    // ----- top-level ------------------------------------------------------

    fn topdec(&mut self) -> Result<TopDec, ParseError> {
        let loc = self.cur_loc();
        match self.cur() {
            Tok::Signature => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let def = self.sigexp()?;
                Ok(TopDec::Signature { name, def, loc })
            }
            Tok::Structure => {
                self.bump();
                let (name, constraint, def) = self.structure_binding()?;
                Ok(TopDec::Structure {
                    name,
                    constraint,
                    def,
                    loc,
                })
            }
            Tok::Functor => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::LParen)?;
                let param = self.ident()?;
                self.expect(&Tok::Colon)?;
                let param_sig = self.sigexp()?;
                self.expect(&Tok::RParen)?;
                let result = self.opt_ascription()?;
                self.expect(&Tok::Eq)?;
                let body = self.strexp()?;
                Ok(TopDec::Functor {
                    name,
                    param,
                    param_sig,
                    result,
                    body,
                    loc,
                })
            }
            other => Err(self.err(format!(
                "expected `signature`, `structure` or `functor` at unit top level, found {other}"
            ))),
        }
    }

    fn opt_ascription(&mut self) -> Result<Option<(SigExp, bool)>, ParseError> {
        if self.eat(&Tok::Colon) {
            Ok(Some((self.sigexp()?, false)))
        } else if self.eat(&Tok::ColonGt) {
            Ok(Some((self.sigexp()?, true)))
        } else {
            Ok(None)
        }
    }

    fn structure_binding(&mut self) -> Result<StructureBinding, ParseError> {
        let name = self.ident()?;
        let constraint = self.opt_ascription()?;
        self.expect(&Tok::Eq)?;
        let def = self.strexp()?;
        Ok((name, constraint, def))
    }

    // ----- signatures -----------------------------------------------------

    fn sigexp(&mut self) -> Result<SigExp, ParseError> {
        let mut base = match self.cur() {
            Tok::Sig => {
                self.bump();
                let mut specs = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::End) {
                        break;
                    }
                    specs.push(self.spec()?);
                }
                SigExp::Sig(specs)
            }
            Tok::Ident(_) => SigExp::Var(self.ident()?),
            other => {
                return Err(self.err(format!("expected a signature expression, found {other}")))
            }
        };
        // `where type tyvars path = ty`, possibly chained.
        while self.at(&Tok::Where) {
            self.bump();
            self.expect(&Tok::Type)?;
            let tyvars = self.tyvarseq()?;
            let ty_path = self.path()?;
            self.expect(&Tok::Eq)?;
            let def = self.ty()?;
            base = SigExp::WhereType {
                base: Box::new(base),
                tyvars,
                ty_path,
                def,
            };
        }
        Ok(base)
    }

    fn spec(&mut self) -> Result<Spec, ParseError> {
        match self.cur() {
            Tok::Val => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Colon)?;
                let ty = self.ty()?;
                Ok(Spec::Val(name, ty))
            }
            Tok::Type => {
                self.bump();
                let tyvars = self.tyvarseq()?;
                let name = self.ident()?;
                let def = if self.eat(&Tok::Eq) {
                    Some(self.ty()?)
                } else {
                    None
                };
                Ok(Spec::Type { tyvars, name, def })
            }
            Tok::Datatype => {
                self.bump();
                Ok(Spec::Datatype(self.datbinds()?))
            }
            Tok::Exception => {
                self.bump();
                let name = self.ident()?;
                let arg = if self.eat(&Tok::Of) {
                    Some(self.ty()?)
                } else {
                    None
                };
                Ok(Spec::Exception(name, arg))
            }
            Tok::Structure => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Colon)?;
                let sig = self.sigexp()?;
                Ok(Spec::Structure(name, sig))
            }
            Tok::Include => {
                self.bump();
                Ok(Spec::Include(self.sigexp()?))
            }
            other => Err(self.err(format!("expected a specification, found {other}"))),
        }
    }

    // ----- structures -----------------------------------------------------

    fn strexp(&mut self) -> Result<StrExp, ParseError> {
        let mut s = match self.cur() {
            Tok::Struct => {
                self.bump();
                let mut decs = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::End) {
                        break;
                    }
                    decs.push(self.strdec()?);
                }
                StrExp::Struct(decs)
            }
            Tok::Let => {
                self.bump();
                let mut decs = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::In) {
                        break;
                    }
                    decs.push(self.strdec()?);
                }
                let body = self.strexp()?;
                self.expect(&Tok::End)?;
                StrExp::Let(decs, Box::new(body))
            }
            Tok::Ident(_) => {
                // Either a path or a functor application `F (strexp)`.
                let start = self.pos;
                let name = self.ident()?;
                if self.at(&Tok::LParen) {
                    self.bump();
                    let arg = self.strexp()?;
                    self.expect(&Tok::RParen)?;
                    StrExp::App(name, Box::new(arg))
                } else {
                    self.pos = start;
                    StrExp::Var(self.path()?)
                }
            }
            other => {
                return Err(self.err(format!("expected a structure expression, found {other}")))
            }
        };
        loop {
            if self.eat(&Tok::Colon) {
                let sig = self.sigexp()?;
                s = StrExp::Ascribe {
                    str: Box::new(s),
                    sig,
                    opaque: false,
                };
            } else if self.eat(&Tok::ColonGt) {
                let sig = self.sigexp()?;
                s = StrExp::Ascribe {
                    str: Box::new(s),
                    sig,
                    opaque: true,
                };
            } else {
                return Ok(s);
            }
        }
    }

    fn strdec(&mut self) -> Result<StrDec, ParseError> {
        if self.at(&Tok::Structure) {
            let loc = self.cur_loc();
            self.bump();
            let (name, constraint, def) = self.structure_binding()?;
            Ok(StrDec::Structure {
                name,
                constraint,
                def,
                loc,
            })
        } else {
            Ok(StrDec::Core(self.dec()?))
        }
    }

    // ----- core declarations ----------------------------------------------

    fn dec(&mut self) -> Result<Dec, ParseError> {
        let loc = self.cur_loc();
        match self.cur() {
            Tok::Val => {
                self.bump();
                let pat = self.pat()?;
                self.expect(&Tok::Eq)?;
                let exp = self.exp()?;
                Ok(Dec::Val { pat, exp, loc })
            }
            Tok::Fun => {
                self.bump();
                let mut binds = vec![self.funbind()?];
                while self.eat(&Tok::And) {
                    binds.push(self.funbind()?);
                }
                Ok(Dec::Fun(binds))
            }
            Tok::Type => {
                self.bump();
                let tyvars = self.tyvarseq()?;
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let def = self.ty()?;
                Ok(Dec::Type { tyvars, name, def })
            }
            Tok::Datatype => {
                self.bump();
                Ok(Dec::Datatype(self.datbinds()?))
            }
            Tok::Exception => {
                self.bump();
                let name = self.ident()?;
                let arg = if self.eat(&Tok::Of) {
                    Some(self.ty()?)
                } else {
                    None
                };
                Ok(Dec::Exception { name, arg })
            }
            Tok::Local => {
                self.bump();
                let mut hidden = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::In) {
                        break;
                    }
                    hidden.push(self.dec()?);
                }
                let mut visible = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::End) {
                        break;
                    }
                    visible.push(self.dec()?);
                }
                Ok(Dec::Local(hidden, visible))
            }
            Tok::Open => {
                self.bump();
                let mut paths = vec![self.path()?];
                while matches!(self.cur(), Tok::Ident(_)) {
                    paths.push(self.path()?);
                }
                Ok(Dec::Open(paths))
            }
            other => Err(self.err(format!("expected a declaration, found {other}"))),
        }
    }

    fn funbind(&mut self) -> Result<FunBind, ParseError> {
        let loc = self.cur_loc();
        let name = self.ident()?;
        let mut clauses = vec![self.clause_after_name()?];
        while self.at(&Tok::Bar) {
            self.bump();
            let n2 = self.ident()?;
            if n2 != name {
                return Err(self.err(format!(
                    "clauses of `{name}` must all use the same name, found `{n2}`"
                )));
            }
            clauses.push(self.clause_after_name()?);
        }
        let arity = clauses[0].params.len();
        if clauses.iter().any(|c| c.params.len() != arity) {
            return Err(ParseError {
                message: format!("clauses of `{name}` have differing numbers of parameters"),
                loc,
            });
        }
        Ok(FunBind { name, clauses, loc })
    }

    fn clause_after_name(&mut self) -> Result<Clause, ParseError> {
        let mut params = vec![self.atpat()?];
        while self.starts_atpat() {
            params.push(self.atpat()?);
        }
        let result_ty = if self.eat(&Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        self.expect(&Tok::Eq)?;
        let body = self.exp()?;
        Ok(Clause {
            params,
            result_ty,
            body,
        })
    }

    fn datbinds(&mut self) -> Result<Vec<DatBind>, ParseError> {
        let mut out = vec![self.datbind()?];
        while self.eat(&Tok::And) {
            out.push(self.datbind()?);
        }
        Ok(out)
    }

    fn datbind(&mut self) -> Result<DatBind, ParseError> {
        let tyvars = self.tyvarseq()?;
        let name = self.ident()?;
        self.expect(&Tok::Eq)?;
        let mut cons = vec![self.conbind()?];
        while self.eat(&Tok::Bar) {
            cons.push(self.conbind()?);
        }
        Ok(DatBind { tyvars, name, cons })
    }

    fn conbind(&mut self) -> Result<(Symbol, Option<Ty>), ParseError> {
        let name = self.ident()?;
        let arg = if self.eat(&Tok::Of) {
            Some(self.ty()?)
        } else {
            None
        };
        Ok((name, arg))
    }

    fn tyvarseq(&mut self) -> Result<Vec<Symbol>, ParseError> {
        match self.cur() {
            Tok::TyVar(v) => {
                let v = *v;
                self.bump();
                Ok(vec![v])
            }
            Tok::LParen if matches!(self.peek2(), Tok::TyVar(_)) => {
                self.bump();
                let mut vs = Vec::new();
                loop {
                    match self.cur() {
                        Tok::TyVar(v) => {
                            vs.push(*v);
                            self.bump();
                        }
                        other => {
                            return Err(self.err(format!("expected a type variable, found {other}")))
                        }
                    }
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(vs)
            }
            _ => Ok(Vec::new()),
        }
    }

    // ----- types ------------------------------------------------------------

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let lhs = self.ty_tuple()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.ty()?;
            Ok(Ty::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn ty_tuple(&mut self) -> Result<Ty, ParseError> {
        let first = self.ty_app()?;
        if !self.at(&Tok::Star) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(&Tok::Star) {
            parts.push(self.ty_app()?);
        }
        Ok(Ty::Tuple(parts))
    }

    /// Postfix constructor application: `int list`, `('a, 'b) pair A.t`.
    fn ty_app(&mut self) -> Result<Ty, ParseError> {
        let mut args: Vec<Ty>;
        match self.cur() {
            Tok::LParen => {
                self.bump();
                let first = self.ty()?;
                if self.eat(&Tok::Comma) {
                    let mut tys = vec![first];
                    loop {
                        tys.push(self.ty()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    // A parenthesized sequence must be followed by a constructor.
                    let path = self.path()?;
                    args = vec![Ty::Con(path, tys)];
                } else {
                    self.expect(&Tok::RParen)?;
                    args = vec![first];
                }
            }
            Tok::TyVar(v) => {
                let v = *v;
                self.bump();
                args = vec![Ty::Var(v)];
            }
            Tok::Ident(_) => {
                let path = self.path()?;
                args = vec![Ty::Con(path, Vec::new())];
            }
            other => return Err(self.err(format!("expected a type, found {other}"))),
        }
        // Postfix constructors.
        while matches!(self.cur(), Tok::Ident(_)) {
            let path = self.path()?;
            let arg = args.pop().expect("one pending type");
            args.push(Ty::Con(path, vec![arg]));
        }
        Ok(args.pop().expect("one type"))
    }

    // ----- patterns -----------------------------------------------------------

    fn starts_atpat(&self) -> bool {
        matches!(
            self.cur(),
            Tok::Underscore
                | Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Str(_)
                | Tok::LParen
                | Tok::LBracket
        )
    }

    fn pat(&mut self) -> Result<Pat, ParseError> {
        // Layered pattern: `x as pat`.
        if let Tok::Ident(name) = self.cur() {
            let name = *name;
            if *self.peek2() == Tok::As {
                self.bump();
                self.bump();
                let inner = self.pat()?;
                return Ok(Pat::As(name, Box::new(inner)));
            }
        }
        let lhs = self.con_pat()?;
        let p = if self.eat(&Tok::Cons) {
            let rhs = self.pat()?;
            Pat::Con(
                Path::simple(Symbol::intern("::")),
                Box::new(Pat::Tuple(vec![lhs, rhs])),
            )
        } else {
            lhs
        };
        if self.eat(&Tok::Colon) {
            let ty = self.ty()?;
            Ok(Pat::Ascribe(Box::new(p), ty))
        } else {
            Ok(p)
        }
    }

    fn con_pat(&mut self) -> Result<Pat, ParseError> {
        if matches!(self.cur(), Tok::Ident(_)) {
            let start = self.pos;
            let path = self.path()?;
            if self.starts_atpat() {
                let arg = self.atpat()?;
                return Ok(Pat::Con(path, Box::new(arg)));
            }
            self.pos = start;
        }
        self.atpat()
    }

    fn atpat(&mut self) -> Result<Pat, ParseError> {
        match self.cur().clone() {
            Tok::Underscore => {
                self.bump();
                Ok(Pat::Wild)
            }
            Tok::Int(n) => {
                self.bump();
                Ok(Pat::Lit(Lit::Int(n)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Pat::Lit(Lit::Str(s)))
            }
            Tok::Ident(_) => Ok(Pat::Var(self.path()?)),
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Pat::Lit(Lit::Unit));
                }
                let first = self.pat()?;
                if self.eat(&Tok::Comma) {
                    let mut ps = vec![first];
                    loop {
                        ps.push(self.pat()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Pat::Tuple(ps))
                } else {
                    self.expect(&Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                let mut ps = Vec::new();
                if !self.at(&Tok::RBracket) {
                    loop {
                        ps.push(self.pat()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(Pat::List(ps))
            }
            other => Err(self.err(format!("expected a pattern, found {other}"))),
        }
    }

    // ----- expressions ----------------------------------------------------------

    fn exp(&mut self) -> Result<Exp, ParseError> {
        match self.cur() {
            Tok::Raise => {
                self.bump();
                Ok(Exp::Raise(Box::new(self.exp()?)))
            }
            Tok::If => {
                self.bump();
                let c = self.exp()?;
                self.expect(&Tok::Then)?;
                let t = self.exp()?;
                self.expect(&Tok::Else)?;
                let e = self.exp()?;
                Ok(Exp::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            Tok::Case => {
                self.bump();
                let scrut = self.exp()?;
                self.expect(&Tok::Of)?;
                let rules = self.match_rules()?;
                Ok(Exp::Case(Box::new(scrut), rules))
            }
            Tok::Fn => {
                self.bump();
                let rules = self.match_rules()?;
                Ok(Exp::Fn(rules))
            }
            _ => {
                let mut e = self.orelse_exp()?;
                loop {
                    if self.eat(&Tok::Handle) {
                        let rules = self.match_rules()?;
                        e = Exp::Handle(Box::new(e), rules);
                    } else if self.eat(&Tok::Colon) {
                        let ty = self.ty()?;
                        e = Exp::Ascribe(Box::new(e), ty);
                    } else {
                        return Ok(e);
                    }
                }
            }
        }
    }

    fn match_rules(&mut self) -> Result<Vec<Rule>, ParseError> {
        let mut rules = Vec::new();
        loop {
            let pat = self.pat()?;
            self.expect(&Tok::FatArrow)?;
            let exp = self.exp()?;
            rules.push(Rule { pat, exp });
            if !self.eat(&Tok::Bar) {
                return Ok(rules);
            }
        }
    }

    fn orelse_exp(&mut self) -> Result<Exp, ParseError> {
        let mut e = self.andalso_exp()?;
        while self.eat(&Tok::Orelse) {
            let r = self.andalso_exp()?;
            e = Exp::Orelse(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn andalso_exp(&mut self) -> Result<Exp, ParseError> {
        let mut e = self.cmp_exp()?;
        while self.eat(&Tok::Andalso) {
            let r = self.cmp_exp()?;
            e = Exp::Andalso(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn cmp_exp(&mut self) -> Result<Exp, ParseError> {
        let mut e = self.cons_exp()?;
        loop {
            let op = match self.cur() {
                Tok::Eq => PrimOp::Eq,
                Tok::Neq => PrimOp::Neq,
                Tok::Lt => PrimOp::Lt,
                Tok::Le => PrimOp::Le,
                Tok::Gt => PrimOp::Gt,
                Tok::Ge => PrimOp::Ge,
                _ => return Ok(e),
            };
            self.bump();
            let r = self.cons_exp()?;
            e = Exp::Prim(op, vec![e, r]);
        }
    }

    fn cons_exp(&mut self) -> Result<Exp, ParseError> {
        let lhs = self.add_exp()?;
        if self.eat(&Tok::Cons) {
            let rhs = self.cons_exp()?;
            Ok(Exp::App(
                Box::new(Exp::Var(Path::simple(Symbol::intern("::")))),
                Box::new(Exp::Tuple(vec![lhs, rhs])),
            ))
        } else if self.eat(&Tok::At) {
            let rhs = self.cons_exp()?;
            Ok(Exp::Prim(PrimOp::Append, vec![lhs, rhs]))
        } else {
            Ok(lhs)
        }
    }

    fn add_exp(&mut self) -> Result<Exp, ParseError> {
        let mut e = self.mul_exp()?;
        loop {
            let op = match self.cur() {
                Tok::Plus => PrimOp::Add,
                Tok::Minus => PrimOp::Sub,
                Tok::Caret => PrimOp::Concat,
                _ => return Ok(e),
            };
            self.bump();
            let r = self.mul_exp()?;
            e = Exp::Prim(op, vec![e, r]);
        }
    }

    fn mul_exp(&mut self) -> Result<Exp, ParseError> {
        let mut e = self.app_exp()?;
        loop {
            let op = match self.cur() {
                Tok::Star => PrimOp::Mul,
                Tok::Div => PrimOp::Div,
                Tok::Mod => PrimOp::Mod,
                _ => return Ok(e),
            };
            self.bump();
            let r = self.app_exp()?;
            e = Exp::Prim(op, vec![e, r]);
        }
    }

    fn starts_atexp(&self) -> bool {
        matches!(
            self.cur(),
            Tok::Ident(_) | Tok::Int(_) | Tok::Str(_) | Tok::LParen | Tok::LBracket | Tok::Let
        )
    }

    fn app_exp(&mut self) -> Result<Exp, ParseError> {
        if self.eat(&Tok::Tilde) {
            let e = self.app_exp()?;
            return Ok(Exp::Prim(PrimOp::Neg, vec![e]));
        }
        let mut e = self.atexp()?;
        while self.starts_atexp() {
            let arg = self.atexp()?;
            e = Exp::App(Box::new(e), Box::new(arg));
        }
        Ok(e)
    }

    fn atexp(&mut self) -> Result<Exp, ParseError> {
        match self.cur().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Exp::Lit(Lit::Int(n)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Exp::Lit(Lit::Str(s)))
            }
            Tok::Ident(_) => Ok(Exp::Var(self.path()?)),
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Exp::Lit(Lit::Unit));
                }
                let first = self.exp()?;
                if self.eat(&Tok::Comma) {
                    let mut es = vec![first];
                    loop {
                        es.push(self.exp()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Exp::Tuple(es))
                } else if self.eat(&Tok::Semi) {
                    let mut es = vec![first];
                    loop {
                        es.push(self.exp()?);
                        if !self.eat(&Tok::Semi) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Exp::Seq(es))
                } else {
                    self.expect(&Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                let mut es = Vec::new();
                if !self.at(&Tok::RBracket) {
                    loop {
                        es.push(self.exp()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(Exp::List(es))
            }
            Tok::Let => {
                self.bump();
                let mut decs = Vec::new();
                loop {
                    while self.eat(&Tok::Semi) {}
                    if self.eat(&Tok::In) {
                        break;
                    }
                    decs.push(self.dec()?);
                }
                let mut body = vec![self.exp()?];
                while self.eat(&Tok::Semi) {
                    body.push(self.exp()?);
                }
                self.expect(&Tok::End)?;
                let body = if body.len() == 1 {
                    body.pop().expect("one body expression")
                } else {
                    Exp::Seq(body)
                };
                Ok(Exp::Let(decs, Box::new(body)))
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> UnitAst {
        parse_unit(src).unwrap_or_else(|e| panic!("{e}\nsource: {src}"))
    }

    fn parse_err(src: &str) -> ParseError {
        parse_unit(src).expect_err("expected parse failure")
    }

    #[test]
    fn empty_unit() {
        assert!(parse("").decs.is_empty());
        assert!(parse("  (* just a comment *) ").decs.is_empty());
    }

    #[test]
    fn simple_structure() {
        let u = parse("structure A = struct val x = 1 end");
        assert_eq!(u.decs.len(), 1);
        assert_eq!(u.decs[0].name(), Symbol::intern("A"));
    }

    #[test]
    fn signature_with_specs() {
        let u = parse(
            "signature S = sig
               type t
               type u = int
               val x : t
               val f : t -> t list
               datatype color = Red | Green of int
               exception Bad of string
               structure Inner : sig val y : int end
             end",
        );
        let TopDec::Signature {
            def: SigExp::Sig(specs),
            ..
        } = &u.decs[0]
        else {
            panic!("expected signature");
        };
        assert_eq!(specs.len(), 7);
    }

    #[test]
    fn figure_one_parses() {
        // The paper's Figure 1, adapted to the subset (fun instead of
        // partially-applied less).
        let u = parse(
            r#"
            signature PARTIAL_ORDER = sig
              type elem
              val less : elem * elem -> bool
            end
            signature SORT = sig
              type t
              val sort : t list -> t list
            end
            functor TopSort (P : PARTIAL_ORDER) : SORT = struct
              type t = P.elem
              fun sort l = l
            end
            structure Factors : PARTIAL_ORDER = struct
              type elem = int
              fun less (i, j) = (j mod i) = 0
            end
            structure FSort : SORT = TopSort(Factors)
            "#,
        );
        assert_eq!(u.decs.len(), 5);
        assert!(matches!(
            &u.decs[4],
            TopDec::Structure {
                def: StrExp::App(..),
                ..
            }
        ));
    }

    #[test]
    fn fun_clauses() {
        let u = parse(
            "structure L = struct
               fun len [] = 0
                 | len (x :: xs) = 1 + len xs
             end",
        );
        let TopDec::Structure {
            def: StrExp::Struct(ds),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let StrDec::Core(Dec::Fun(fbs)) = &ds[0] else {
            panic!()
        };
        assert_eq!(fbs[0].clauses.len(), 2);
    }

    #[test]
    fn clause_name_mismatch_is_error() {
        let e = parse_err("structure A = struct fun f x = 1 | g x = 2 end");
        assert!(e.message.contains("same name"), "{e}");
    }

    #[test]
    fn clause_arity_mismatch_is_error() {
        let e = parse_err("structure A = struct fun f x = 1 | f x y = 2 end");
        assert!(e.message.contains("differing"), "{e}");
    }

    #[test]
    fn infix_precedence() {
        let u = parse("structure A = struct val x = 1 + 2 * 3 end");
        let TopDec::Structure {
            def: StrExp::Struct(ds),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let StrDec::Core(Dec::Val { exp, .. }) = &ds[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        let Exp::Prim(PrimOp::Add, args) = exp else {
            panic!("expected +, got {exp:?}")
        };
        assert!(matches!(&args[1], Exp::Prim(PrimOp::Mul, _)));
    }

    #[test]
    fn cons_is_right_associative() {
        let u = parse("structure A = struct val x = 1 :: 2 :: [] end");
        let TopDec::Structure {
            def: StrExp::Struct(ds),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let StrDec::Core(Dec::Val { exp, .. }) = &ds[0] else {
            panic!()
        };
        let Exp::App(f, arg) = exp else { panic!() };
        assert!(matches!(**f, Exp::Var(_)));
        let Exp::Tuple(elems) = &**arg else { panic!() };
        assert!(matches!(&elems[1], Exp::App(..)));
    }

    #[test]
    fn arrow_types_are_right_associative() {
        let u = parse("signature S = sig val f : int -> int -> int end");
        let TopDec::Signature {
            def: SigExp::Sig(specs),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let Spec::Val(_, Ty::Arrow(_, rhs)) = &specs[0] else {
            panic!()
        };
        assert!(matches!(**rhs, Ty::Arrow(..)));
    }

    #[test]
    fn tuple_types_bind_tighter_than_arrow() {
        let u = parse("signature S = sig val f : int * int -> bool end");
        let TopDec::Signature {
            def: SigExp::Sig(specs),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let Spec::Val(_, Ty::Arrow(lhs, _)) = &specs[0] else {
            panic!()
        };
        assert!(matches!(**lhs, Ty::Tuple(_)));
    }

    #[test]
    fn postfix_type_constructors() {
        let u = parse("signature S = sig val x : int list list end");
        let TopDec::Signature {
            def: SigExp::Sig(specs),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let Spec::Val(_, Ty::Con(p, args)) = &specs[0] else {
            panic!()
        };
        assert_eq!(p.last, Symbol::intern("list"));
        assert!(matches!(&args[0], Ty::Con(p2, _) if p2.last == Symbol::intern("list")));
    }

    #[test]
    fn multi_arg_type_constructor() {
        let u = parse("signature S = sig type ('a, 'b) pair val x : (int, string) pair end");
        let TopDec::Signature {
            def: SigExp::Sig(specs),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let Spec::Type { tyvars, .. } = &specs[0] else {
            panic!()
        };
        assert_eq!(tyvars.len(), 2);
        let Spec::Val(_, Ty::Con(_, args)) = &specs[1] else {
            panic!()
        };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn opaque_ascription() {
        let u = parse("structure A :> sig type t end = struct type t = int end");
        let TopDec::Structure {
            constraint: Some((_, opaque)),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        assert!(opaque);
    }

    #[test]
    fn where_type() {
        let u = parse("structure A : sig type t end where type t = int = struct type t = int end");
        let TopDec::Structure {
            constraint: Some((SigExp::WhereType { .. }, _)),
            ..
        } = &u.decs[0]
        else {
            panic!("expected where type")
        };
    }

    #[test]
    fn let_and_case_and_handle() {
        parse(
            r#"structure A = struct
                 exception Empty
                 fun hd [] = raise Empty
                   | hd (x :: _) = x
                 fun safeHd l = hd l handle Empty => 0
                 val z = let val a = 1 val b = 2 in a + b end
                 val w = case [1] of [] => 0 | x :: _ => x
               end"#,
        );
    }

    #[test]
    fn functor_with_result_sig() {
        let u = parse(
            "signature S = sig type t end
             functor F (X : S) : S = struct type t = X.t end",
        );
        let TopDec::Functor {
            result: Some(_), ..
        } = &u.decs[1]
        else {
            panic!()
        };
    }

    #[test]
    fn top_level_core_dec_rejected() {
        let e = parse_err("val x = 1");
        assert!(e.message.contains("unit top level"), "{e}");
    }

    #[test]
    fn qualified_paths() {
        let u = parse("structure B = struct val y = A.Inner.x + 1 end");
        let TopDec::Structure {
            def: StrExp::Struct(ds),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let StrDec::Core(Dec::Val {
            exp: Exp::Prim(_, args),
            ..
        }) = &ds[0]
        else {
            panic!()
        };
        let Exp::Var(p) = &args[0] else { panic!() };
        assert_eq!(p.qualifiers.len(), 2);
        assert_eq!(p.root(), Symbol::intern("A"));
    }

    #[test]
    fn local_and_open() {
        parse(
            "structure A = struct
               local
                 fun helper x = x + 1
               in
                 fun visible y = helper y
               end
               open A
             end",
        );
    }

    #[test]
    fn andalso_orelse_shortcircuit_forms() {
        let u = parse("structure A = struct val b = 1 < 2 andalso 2 < 3 orelse 3 < 4 end");
        let TopDec::Structure {
            def: StrExp::Struct(ds),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        let StrDec::Core(Dec::Val { exp, .. }) = &ds[0] else {
            panic!()
        };
        assert!(matches!(exp, Exp::Orelse(..)));
    }

    #[test]
    fn seq_expressions() {
        parse("structure A = struct val x = (1; 2; 3) end");
    }

    #[test]
    fn error_has_location() {
        let e = parse_err("structure A = struct\n val x = ? end");
        assert_eq!(e.loc.line, 2);
    }

    #[test]
    fn functor_application_of_path_arg() {
        let u = parse("structure C = F(A.B)");
        let TopDec::Structure {
            def: StrExp::App(f, arg),
            ..
        } = &u.decs[0]
        else {
            panic!()
        };
        assert_eq!(*f, Symbol::intern("F"));
        assert!(matches!(**arg, StrExp::Var(_)));
    }

    #[test]
    fn nested_structures() {
        parse(
            "structure A = struct
               structure Inner = struct val x = 1 end
               val y = Inner.x
             end",
        );
    }

    #[test]
    fn str_let() {
        parse("structure A = let structure H = struct val x = 1 end in struct val y = H.x end end");
    }

    #[test]
    fn include_spec() {
        parse(
            "signature BASE = sig val x : int end
             signature EXT = sig include BASE val y : int end",
        );
    }
}
