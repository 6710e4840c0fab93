//! Instruction-level IR for ISE identification.
//!
//! The ISEGEN paper operates on the data-flow graph (DFG) of a basic
//! block: nodes are RISC-level operations, edges are data dependencies.
//! This crate provides that representation plus the latency model the
//! merit function needs:
//!
//! * [`Opcode`] — the operation vocabulary (arithmetic, logic, shifts,
//!   comparisons, AES helpers, memory, external inputs) with arity and
//!   ISE-eligibility classification. Memory operations and external inputs
//!   are *barriers*: they can never join a cut (paper §4.2).
//! * [`Operation`] — a node payload.
//! * [`BasicBlock`] — a DFG with an execution frequency and live-out set.
//! * [`Application`] — a named collection of basic blocks (Problem 2 of the
//!   paper optimises across blocks).
//! * [`LatencyModel`] — software cycles and normalised hardware delays per
//!   opcode. Hardware delays are expressed as fractions of one 32-bit
//!   multiply-accumulate (MAC) delay, exactly like the paper's
//!   synthesis-calibrated table.
//! * [`BlockBuilder`] — ergonomic DFG construction with arity validation.
//! * [`text`] — a round-trip text serialization of applications, the wire
//!   format of the `ised` service (parse errors, never panics).
//!
//! # Example
//!
//! ```
//! use isegen_ir::{BlockBuilder, Opcode, LatencyModel};
//!
//! # fn main() -> Result<(), isegen_ir::BuildError> {
//! let mut b = BlockBuilder::new("mac_chain");
//! let x = b.input("x");
//! let y = b.input("y");
//! let p = b.op(Opcode::Mul, &[x, y])?;
//! let s = b.op(Opcode::Add, &[p, p])?;
//! let block = b.build()?;
//!
//! let model = LatencyModel::paper_default();
//! assert!(block.software_latency(&model) > 0);
//! # let _ = s;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod block;
mod builder;
mod error;
pub mod interp;
mod latency;
mod opcode;
pub mod text;

pub use app::Application;
pub use block::BasicBlock;
pub use builder::BlockBuilder;
pub use error::BuildError;
pub use latency::{LatencyModel, MAX_HW_DELAY};
pub use opcode::{Opcode, Operation};
pub use text::{parse_application, write_application, TextError};
