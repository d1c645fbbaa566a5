//! Recursive-descent parser for PaQL.

use minidb::{BinaryOp, Expr, UnaryOp, Value};

use crate::ast::{
    AggCall, AggFunc, CmpOp, GlobalArithOp, GlobalConstraint, GlobalExpr, GlobalFormula, Objective,
    ObjectiveDirection, PaqlQuery,
};
use crate::error::PaqlError;
use crate::lexer::tokenize;
use crate::token::{Keyword, SpannedToken, Token};
use crate::PaqlResult;

/// Parses a PaQL query.
pub fn parse(source: &str) -> PaqlResult<PaqlQuery> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        source_len: source.len(),
    };
    let query = parser.parse_query()?;
    parser.expect_end()?;
    Ok(query)
}

/// Parses a standalone scalar expression (used by the interface layer when a
/// user types a base constraint directly into the template).
pub fn parse_base_expr(source: &str) -> PaqlResult<Expr> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        source_len: source.len(),
    };
    let expr = parser.parse_expr()?;
    parser.expect_end()?;
    Ok(expr)
}

/// Parses a standalone global formula (used for interactive constraint
/// refinement in the SUCH THAT panel).
pub fn parse_global_formula(source: &str) -> PaqlResult<GlobalFormula> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        source_len: source.len(),
    };
    let formula = parser.parse_formula()?;
    parser.expect_end()?;
    Ok(formula)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    source_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or(self.source_len)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> PaqlResult<T> {
        Err(PaqlError::Parse {
            message: message.into(),
            offset: self.offset(),
        })
    }

    fn expect_keyword(&mut self, kw: Keyword) -> PaqlResult<()> {
        match self.peek() {
            Some(Token::Keyword(k)) if *k == kw => {
                self.advance();
                Ok(())
            }
            other => self.error(format!("expected {kw:?}, found {}", describe(other))),
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, token: &Token) -> PaqlResult<()> {
        match self.peek() {
            Some(t) if t == token => {
                self.advance();
                Ok(())
            }
            other => self.error(format!("expected '{token}', found {}", describe(other))),
        }
    }

    fn expect_ident(&mut self) -> PaqlResult<String> {
        match self.peek().cloned() {
            Some(Token::Ident(s)) => {
                self.advance();
                Ok(s)
            }
            other => self.error(format!(
                "expected an identifier, found {}",
                describe(other.as_ref())
            )),
        }
    }

    fn expect_end(&mut self) -> PaqlResult<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.error(format!(
                "unexpected trailing input: {}",
                describe(self.peek())
            ))
        }
    }

    // ---- query ----

    fn parse_query(&mut self) -> PaqlResult<PaqlQuery> {
        self.expect_keyword(Keyword::Select)?;
        self.expect_keyword(Keyword::Package)?;
        self.expect_token(&Token::LParen)?;
        let package_of = self.expect_ident()?;
        self.expect_token(&Token::RParen)?;
        self.expect_keyword(Keyword::As)?;
        let package_alias = self.expect_ident()?;

        self.expect_keyword(Keyword::From)?;
        let relation = self.expect_ident()?;
        // Optional relation alias (an identifier that is not a clause keyword).
        let relation_alias = match self.peek() {
            Some(Token::Ident(_)) => Some(self.expect_ident()?),
            _ => None,
        };
        // The identifier inside PACKAGE(...) must match the alias (or the
        // relation name when no alias is given).
        let target = relation_alias.as_deref().unwrap_or(relation.as_str());
        if !package_of.eq_ignore_ascii_case(target) && !package_of.eq_ignore_ascii_case(&relation) {
            return Err(PaqlError::Semantic(format!(
                "PACKAGE({package_of}) does not reference the FROM relation '{relation}'{}",
                relation_alias
                    .as_deref()
                    .map(|a| format!(" (alias '{a}')"))
                    .unwrap_or_default()
            )));
        }

        let repeat = if self.eat_keyword(Keyword::Repeat) {
            match self.advance() {
                Some(Token::Number(n)) if n >= 1.0 && n.fract() == 0.0 => Some(n as u32),
                _ => return self.error("REPEAT expects a positive integer"),
            }
        } else {
            None
        };

        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let such_that = if self.eat_keyword(Keyword::Such) {
            self.expect_keyword(Keyword::That)?;
            Some(self.parse_formula()?)
        } else {
            None
        };

        let objective = match self.peek() {
            Some(Token::Keyword(Keyword::Maximize)) => {
                self.advance();
                Some(Objective {
                    direction: ObjectiveDirection::Maximize,
                    expr: self.parse_global_expr()?,
                })
            }
            Some(Token::Keyword(Keyword::Minimize)) => {
                self.advance();
                Some(Objective {
                    direction: ObjectiveDirection::Minimize,
                    expr: self.parse_global_expr()?,
                })
            }
            _ => None,
        };

        Ok(PaqlQuery {
            package_alias,
            relation,
            relation_alias,
            repeat,
            where_clause,
            such_that,
            objective,
        })
    }

    // ---- scalar (base constraint) expressions ----

    fn parse_expr(&mut self) -> PaqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> PaqlResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.parse_and()?;
            lhs = Expr::binary(BinaryOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> PaqlResult<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.parse_not()?;
            lhs = Expr::binary(BinaryOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> PaqlResult<Expr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> PaqlResult<Expr> {
        let lhs = self.parse_additive()?;
        // Optional negation of the following postfix predicate (x NOT IN ...).
        let negated = self.eat_keyword(Keyword::Not);
        let comparison = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let (Some(op), false) = (comparison, negated) {
            self.advance();
            let rhs = self.parse_additive()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        match self.peek().cloned() {
            Some(Token::Keyword(Keyword::Between)) => {
                self.advance();
                let low = self.parse_additive()?;
                self.expect_keyword(Keyword::And)?;
                let high = self.parse_additive()?;
                Ok(Expr::Between {
                    expr: Box::new(lhs),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                })
            }
            Some(Token::Keyword(Keyword::In)) => {
                self.advance();
                self.expect_token(&Token::LParen)?;
                let mut list = Vec::new();
                loop {
                    list.push(self.parse_additive()?);
                    if !matches!(self.peek(), Some(Token::Comma)) {
                        break;
                    }
                    self.advance();
                }
                self.expect_token(&Token::RParen)?;
                Ok(Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated,
                })
            }
            Some(Token::Keyword(Keyword::Like)) => {
                self.advance();
                match self.advance() {
                    Some(Token::String(p)) => Ok(Expr::Like {
                        expr: Box::new(lhs),
                        pattern: p,
                        negated,
                    }),
                    _ => self.error("LIKE expects a string literal pattern"),
                }
            }
            Some(Token::Keyword(Keyword::Is)) if !negated => {
                self.advance();
                let negated = self.eat_keyword(Keyword::Not);
                self.expect_keyword(Keyword::Null)?;
                Ok(Expr::IsNull {
                    expr: Box::new(lhs),
                    negated,
                })
            }
            _ if negated => self.error("expected BETWEEN, IN or LIKE after NOT"),
            _ => Ok(lhs),
        }
    }

    fn parse_additive(&mut self) -> PaqlResult<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> PaqlResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PaqlResult<Expr> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.advance();
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> PaqlResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.advance();
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    Ok(Expr::lit(n as i64))
                } else {
                    Ok(Expr::lit(n))
                }
            }
            Some(Token::String(s)) => {
                self.advance();
                Ok(Expr::lit(s.as_str()))
            }
            Some(Token::Keyword(Keyword::True)) => {
                self.advance();
                Ok(Expr::lit(true))
            }
            Some(Token::Keyword(Keyword::False)) => {
                self.advance();
                Ok(Expr::lit(false))
            }
            Some(Token::Keyword(Keyword::Null)) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(name)) => {
                self.advance();
                let full = if matches!(self.peek(), Some(Token::Dot)) {
                    self.advance();
                    let col = self.expect_ident()?;
                    format!("{name}.{col}")
                } else {
                    name
                };
                Ok(Expr::col(full))
            }
            Some(Token::LParen) => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            other => self.error(format!(
                "expected an expression, found {}",
                describe(other.as_ref())
            )),
        }
    }

    // ---- global (SUCH THAT) formulas ----

    fn parse_formula(&mut self) -> PaqlResult<GlobalFormula> {
        self.parse_formula_or()
    }

    fn parse_formula_or(&mut self) -> PaqlResult<GlobalFormula> {
        let mut lhs = self.parse_formula_and()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.parse_formula_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn parse_formula_and(&mut self) -> PaqlResult<GlobalFormula> {
        let mut lhs = self.parse_formula_not()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.parse_formula_not()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn parse_formula_not(&mut self) -> PaqlResult<GlobalFormula> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.parse_formula_not()?;
            return Ok(GlobalFormula::Not(Box::new(inner)));
        }
        self.parse_formula_atom()
    }

    fn parse_formula_atom(&mut self) -> PaqlResult<GlobalFormula> {
        // A leading '(' is ambiguous: it can open a parenthesized formula or a
        // parenthesized global expression. Try the constraint interpretation
        // first and fall back to the formula interpretation.
        if matches!(self.peek(), Some(Token::LParen)) {
            let save = self.pos;
            if let Ok(atom) = self.parse_constraint() {
                return Ok(atom);
            }
            self.pos = save;
            self.expect_token(&Token::LParen)?;
            let inner = self.parse_formula()?;
            self.expect_token(&Token::RParen)?;
            return Ok(inner);
        }
        self.parse_constraint()
    }

    fn parse_constraint(&mut self) -> PaqlResult<GlobalFormula> {
        let lhs = self.parse_global_expr()?;
        match self.peek().cloned() {
            Some(Token::Keyword(Keyword::Between)) => {
                self.advance();
                let low = self.parse_global_expr()?;
                self.expect_keyword(Keyword::And)?;
                let high = self.parse_global_expr()?;
                // Desugar BETWEEN into lhs >= low AND lhs <= high.
                let a = GlobalFormula::Atom(GlobalConstraint {
                    lhs: lhs.clone(),
                    op: CmpOp::GtEq,
                    rhs: low,
                });
                let b = GlobalFormula::Atom(GlobalConstraint {
                    lhs,
                    op: CmpOp::LtEq,
                    rhs: high,
                });
                Ok(a.and(b))
            }
            Some(t) => {
                let op = match t {
                    Token::Eq => CmpOp::Eq,
                    Token::NotEq => CmpOp::NotEq,
                    Token::Lt => CmpOp::Lt,
                    Token::LtEq => CmpOp::LtEq,
                    Token::Gt => CmpOp::Gt,
                    Token::GtEq => CmpOp::GtEq,
                    other => {
                        return self.error(format!(
                        "expected a comparison operator or BETWEEN in SUCH THAT, found '{other}'"
                    ))
                    }
                };
                self.advance();
                let rhs = self.parse_global_expr()?;
                Ok(GlobalFormula::Atom(GlobalConstraint { lhs, op, rhs }))
            }
            None => self.error("unexpected end of input inside SUCH THAT"),
        }
    }

    fn parse_global_expr(&mut self) -> PaqlResult<GlobalExpr> {
        self.parse_global_additive()
    }

    fn parse_global_additive(&mut self) -> PaqlResult<GlobalExpr> {
        let mut lhs = self.parse_global_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => GlobalArithOp::Add,
                Some(Token::Minus) => GlobalArithOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_global_multiplicative()?;
            lhs = GlobalExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_global_multiplicative(&mut self) -> PaqlResult<GlobalExpr> {
        let mut lhs = self.parse_global_primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => GlobalArithOp::Mul,
                Some(Token::Slash) => GlobalArithOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_global_primary()?;
            lhs = GlobalExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_global_primary(&mut self) -> PaqlResult<GlobalExpr> {
        let token = self.peek().cloned();
        if let Some(func) = token.as_ref().and_then(agg_func) {
            self.advance();
            self.expect_token(&Token::LParen)?;
            let arg = if matches!(self.peek(), Some(Token::Star)) {
                self.advance();
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_token(&Token::RParen)?;
            if arg.is_none() && func != AggFunc::Count {
                return self.error(format!(
                    "{}(*) is not valid; only COUNT accepts '*'",
                    func.name()
                ));
            }
            let filter = if self.eat_keyword(Keyword::Filter) {
                self.expect_token(&Token::LParen)?;
                self.expect_keyword(Keyword::Where)?;
                let p = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Some(p)
            } else {
                None
            };
            return Ok(GlobalExpr::Agg(AggCall { func, arg, filter }));
        }
        match token {
            Some(Token::Number(n)) => {
                self.advance();
                Ok(GlobalExpr::Literal(n))
            }
            Some(Token::Minus) => {
                self.advance();
                let inner = self.parse_global_primary()?;
                Ok(GlobalExpr::Binary {
                    op: GlobalArithOp::Mul,
                    lhs: Box::new(GlobalExpr::Literal(-1.0)),
                    rhs: Box::new(inner),
                })
            }
            Some(Token::LParen) => {
                self.advance();
                let e = self.parse_global_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            other => self.error(format!(
                "expected an aggregate, number or '(' in SUCH THAT, found {}",
                describe(other.as_ref())
            )),
        }
    }
}

/// The aggregate function a token names, if it names one.
fn agg_func(token: &Token) -> Option<AggFunc> {
    match token {
        Token::Keyword(Keyword::Count) => Some(AggFunc::Count),
        Token::Keyword(Keyword::Sum) => Some(AggFunc::Sum),
        Token::Keyword(Keyword::Avg) => Some(AggFunc::Avg),
        Token::Keyword(Keyword::Min) => Some(AggFunc::Min),
        Token::Keyword(Keyword::Max) => Some(AggFunc::Max),
        _ => None,
    }
}

fn describe(t: Option<&Token>) -> String {
    match t {
        None => "end of input".to_string(),
        Some(t) => format!("'{t}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P \
        FROM Recipes R \
        WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
        MAXIMIZE SUM(P.protein)";

    #[test]
    fn parses_the_paper_query() {
        let q = parse(MEAL_QUERY).unwrap();
        assert_eq!(q.package_alias, "P");
        assert_eq!(q.relation, "Recipes");
        assert_eq!(q.relation_alias.as_deref(), Some("R"));
        assert_eq!(q.repeat, None);
        assert!(q.where_clause.is_some());
        let st = q.such_that.unwrap();
        // COUNT(*) = 3, SUM >= 2000, SUM <= 2500 after BETWEEN desugaring.
        assert_eq!(st.atoms().len(), 3);
        assert!(st.is_conjunctive());
        let obj = q.objective.unwrap();
        assert_eq!(obj.direction, ObjectiveDirection::Maximize);
    }

    #[test]
    fn parses_repeat_clause() {
        let q =
            parse("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 3 SUCH THAT COUNT(*) = 5").unwrap();
        assert_eq!(q.repeat, Some(3));
        assert_eq!(q.max_multiplicity(), 3);
        assert!(parse("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0").is_err());
        assert!(parse("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT x").is_err());
    }

    #[test]
    fn parses_minimize_objective_and_no_where() {
        let q = parse(
            "SELECT PACKAGE(R) AS P FROM meals R SUCH THAT SUM(P.fat) <= 50 MINIMIZE SUM(P.price)",
        )
        .unwrap();
        assert!(q.where_clause.is_none());
        assert_eq!(q.objective.unwrap().direction, ObjectiveDirection::Minimize);
    }

    #[test]
    fn parses_filtered_aggregates_and_ratio_constraints() {
        let q = parse(
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT SUM(P.price) <= 50000 AND \
                       SUM(P.price) FILTER (WHERE S.sector = 'tech') >= 0.3 * SUM(P.price) \
             MAXIMIZE SUM(P.expected_return)",
        )
        .unwrap();
        let st = q.such_that.unwrap();
        let atoms = st.atoms();
        assert_eq!(atoms.len(), 2);
        let filtered = &atoms[1].lhs;
        match filtered {
            GlobalExpr::Agg(call) => assert!(call.filter.is_some()),
            other => panic!("expected aggregate, got {other:?}"),
        }
        match &atoms[1].rhs {
            GlobalExpr::Binary {
                op: GlobalArithOp::Mul,
                ..
            } => {}
            other => panic!("expected product, got {other:?}"),
        }
    }

    #[test]
    fn parses_disjunctive_formulas() {
        let q = parse(
            "SELECT PACKAGE(R) AS P FROM trips R \
             SUCH THAT (SUM(P.cost) <= 2000 AND COUNT(*) = 2) OR \
                       (SUM(P.cost) <= 1500 AND COUNT(*) = 1)",
        )
        .unwrap();
        let st = q.such_that.unwrap();
        assert!(!st.is_conjunctive());
        assert_eq!(st.atoms().len(), 4);
    }

    #[test]
    fn parses_not_and_nested_parens() {
        let q = parse("SELECT PACKAGE(R) AS P FROM t R SUCH THAT NOT (COUNT(*) > 5)").unwrap();
        match q.such_that.unwrap() {
            GlobalFormula::Not(inner) => assert_eq!(inner.atoms().len(), 1),
            other => panic!("expected NOT, got {other:?}"),
        }
    }

    #[test]
    fn base_where_supports_sql_predicates() {
        let q = parse(
            "SELECT PACKAGE(R) AS P FROM Recipes R \
             WHERE R.gluten = 'free' AND R.calories BETWEEN 100 AND 900 \
               AND R.course IN ('breakfast', 'lunch') AND R.name NOT LIKE '%sugar%' \
               AND R.rating IS NOT NULL",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let cols = w.referenced_columns();
        assert!(cols.contains(&"R.course".to_string()));
        assert!(cols.contains(&"R.rating".to_string()));
    }

    #[test]
    fn package_alias_must_reference_from_relation() {
        let err = parse("SELECT PACKAGE(X) AS P FROM Recipes R").unwrap_err();
        assert!(matches!(err, PaqlError::Semantic(_)));
        // Referencing the relation name itself (no alias) is fine.
        assert!(parse("SELECT PACKAGE(Recipes) AS P FROM Recipes").is_ok());
    }

    #[test]
    fn missing_clauses_and_trailing_garbage_error() {
        assert!(parse("SELECT PACKAGE(R) AS P").is_err());
        assert!(parse("SELECT PACKAGE(R) AS P FROM t R extra garbage").is_err());
        assert!(parse("SELECT PACKAGE(R) AS P FROM t R SUCH THAT").is_err());
        assert!(parse("SELECT PACKAGE(R) AS P FROM t R SUCH THAT SUM(*) = 3").is_err());
    }

    #[test]
    fn standalone_expression_parsers() {
        let e = parse_base_expr("calories / protein <= 30 AND gluten = 'free'").unwrap();
        assert_eq!(e.referenced_columns().len(), 3);
        let f = parse_global_formula("COUNT(*) = 3 AND SUM(calories) <= 2500").unwrap();
        assert_eq!(f.atoms().len(), 2);
        assert!(parse_base_expr("1 +").is_err());
    }

    #[test]
    fn global_expression_arithmetic_precedence() {
        let f = parse_global_formula("SUM(a) + 2 * SUM(b) <= 10").unwrap();
        let atom = f.atoms()[0].clone();
        match atom.lhs {
            GlobalExpr::Binary {
                op: GlobalArithOp::Add,
                rhs,
                ..
            } => match *rhs {
                GlobalExpr::Binary {
                    op: GlobalArithOp::Mul,
                    ..
                } => {}
                other => panic!("expected product on the right of +, got {other:?}"),
            },
            other => panic!("expected sum at the top, got {other:?}"),
        }
    }

    #[test]
    fn avg_min_max_aggregates_parse() {
        let f =
            parse_global_formula("AVG(calories) <= 700 AND MIN(protein) >= 5 AND MAX(fat) <= 40")
                .unwrap();
        assert_eq!(f.atoms().len(), 3);
    }
}
