//! A small SQL front end: lexer, parser, binder, executor, and the
//! `stmt_db.toml`-style statement registry that makes the benchmark's
//! workloads extensible without touching driver code.

pub mod bind;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod registry;

pub use bind::{
    bind, execute, BindError, BoundExpr, BoundStmt, ExecError, ProjectedRow, StmtOutput,
};
pub use parser::{parse, Assign, Ast, Expr, ParseError};
pub use registry::{RegistryError, StmtId, StmtRegistry};
