//! Scalar comparison predicates over tuples.
//!
//! The query-flock language allows "arithmetic subgoals, e.g. `X < Y`,
//! where `X` and `Y` are variables or parameters" (§2.3). Once a flock
//! is compiled, each arithmetic subgoal becomes a [`Predicate`]
//! comparing two tuple columns or a column with a constant.

pub use qf_storage::CmpOp;
use qf_storage::{Tuple, Value};

/// One side of a comparison: a tuple column or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Column index into the operator's input tuple.
    Col(usize),
    /// Literal value.
    Const(Value),
}

impl Operand {
    #[inline]
    fn resolve(self, row: &[Value]) -> Value {
        match self {
            Operand::Col(i) => row[i],
            Operand::Const(v) => v,
        }
    }

    /// The column index if this operand is a column.
    pub fn column(self) -> Option<usize> {
        match self {
            Operand::Col(i) => Some(i),
            Operand::Const(_) => None,
        }
    }
}

/// A comparison `lhs op rhs` evaluated against a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Operand,
}

impl Predicate {
    /// `column op constant` predicate.
    pub fn col_const(col: usize, op: CmpOp, v: Value) -> Predicate {
        Predicate {
            lhs: Operand::Col(col),
            op,
            rhs: Operand::Const(v),
        }
    }

    /// `column op column` predicate.
    pub fn col_col(a: usize, op: CmpOp, b: usize) -> Predicate {
        Predicate {
            lhs: Operand::Col(a),
            op,
            rhs: Operand::Col(b),
        }
    }

    /// Evaluate against a tuple.
    #[inline]
    pub fn eval(&self, t: &Tuple) -> bool {
        self.eval_row(t.values())
    }

    /// Evaluate against a row's values, before any tuple is built.
    #[inline]
    pub fn eval_row(&self, row: &[Value]) -> bool {
        self.op
            .eval(self.lhs.resolve(row).cmp(&self.rhs.resolve(row)))
    }

    /// Largest column index referenced, if any (for validation).
    pub fn max_column(&self) -> Option<usize> {
        match (self.lhs.column(), self.rhs.column()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = |o: &Operand| match o {
            Operand::Col(i) => format!("#{i}"),
            Operand::Const(v) => v.to_string(),
        };
        write!(f, "{} {} {}", side(&self.lhs), self.op, side(&self.rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::int(a), Value::int(b)])
    }

    #[test]
    fn all_operators() {
        let row = t(1, 2);
        assert!(Predicate::col_col(0, CmpOp::Lt, 1).eval(&row));
        assert!(Predicate::col_col(0, CmpOp::Le, 1).eval(&row));
        assert!(!Predicate::col_col(0, CmpOp::Eq, 1).eval(&row));
        assert!(Predicate::col_col(0, CmpOp::Ne, 1).eval(&row));
        assert!(!Predicate::col_col(0, CmpOp::Ge, 1).eval(&row));
        assert!(!Predicate::col_col(0, CmpOp::Gt, 1).eval(&row));
    }

    #[test]
    fn const_comparisons() {
        let row = t(5, 0);
        assert!(Predicate::col_const(0, CmpOp::Ge, Value::int(5)).eval(&row));
        assert!(!Predicate::col_const(0, CmpOp::Gt, Value::int(5)).eval(&row));
    }

    #[test]
    fn strings_compare_lexicographically() {
        let row = Tuple::from([Value::str("anchovy"), Value::str("beer")]);
        assert!(Predicate::col_col(0, CmpOp::Lt, 1).eval(&row));
    }

    #[test]
    fn flipped_and_negated_are_consistent() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                let fwd = op.eval(a.cmp(&b));
                assert_eq!(fwd, op.flipped().eval(b.cmp(&a)), "flip {op} {a} {b}");
                assert_eq!(fwd, !op.negated().eval(a.cmp(&b)), "neg {op} {a} {b}");
            }
        }
    }

    #[test]
    fn max_column() {
        assert_eq!(Predicate::col_col(2, CmpOp::Eq, 5).max_column(), Some(5));
        assert_eq!(
            Predicate::col_const(3, CmpOp::Eq, Value::int(0)).max_column(),
            Some(3)
        );
    }
}
