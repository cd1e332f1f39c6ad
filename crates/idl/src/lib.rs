//! # rossf-idl — the SFM Generator (§4.3.1)
//!
//! The paper's SFM Generator is built on ROS `genmsg`: it consumes the ROS
//! `.msg` interface-definition language and emits message classes that
//! follow the SFM format. This crate is that generator for the Rust
//! reproduction:
//!
//! 1. [`parse_msg`] parses `.msg` text into a [`MessageSpec`];
//! 2. a [`Catalog`] resolves cross-message references
//!    (`Header`, `geometry_msgs/Point32`, …);
//! 3. [`generate`] emits Rust source declaring the plain struct, the SFM
//!    skeleton struct, and a `ros_message_impls!` invocation that produces
//!    the full trait stack.
//!
//! The generated code is real: every message `rossf-msg` ships is defined
//! once, as a `.msg` file under this crate's `msg/<pkg>/<Name>.msg` tree.
//! The tree is embedded here ([`Catalog::with_standard_messages`] is built
//! from it) and `rossf-msg`'s build script runs this generator over it, one
//! module per package (see `crates/msg/build.rs`), so a user definition can
//! reference exactly the types the crate ships.
//!
//! ```
//! use rossf_idl::{parse_msg, Catalog, GenConfig};
//!
//! let spec = parse_msg("demo_msgs", "Blip", "
//!     Header header
//!     float32 strength
//!     uint8[] samples
//! ").unwrap();
//! let mut catalog = Catalog::with_standard_messages();
//! catalog.add(spec).unwrap();
//! let code = catalog.generate_all(&GenConfig::default()).unwrap();
//! assert!(code.contains("pub struct Blip"));
//! assert!(code.contains("pub struct SfmBlip"));
//! assert!(code.contains("ros_message_impls!"));
//! ```

#![deny(missing_docs)]

mod codegen;
mod model;
mod parse;
mod schema;

pub use codegen::{generate, GenConfig};
pub use model::{Arity, Catalog, Constant, Field, FieldType, MessageSpec, ResolvedType};
pub use parse::{parse_msg, ParseError};
pub use schema::{schema_from_spec, SchemaBuilder, SchemaError};
