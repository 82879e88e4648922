//! In-memory column store and synthetic dataset generators for AIDE.
//!
//! This crate is the database substrate of the reproduction: typed
//! [`Table`]s with row builders and CSV I/O, normalized d-dimensional
//! [`NumericView`]s of exploration attributes (paper §2.3), and generators
//! for SDSS-like and AuctionMark-like synthetic datasets standing in for
//! the paper's proprietary workloads (see `DESIGN.md` §3).

pub mod column;
pub mod csv;
pub mod describe;
pub mod error;
pub mod generator;
pub mod schema;
pub mod store;
pub mod table;
pub mod value;
pub mod view;

pub use column::Column;
pub use describe::{ColumnSummary, LaneSummary};
pub use error::{DataError, Result};
pub use generator::{auction_like, sdss_like, ColumnSpec, DatasetSpec};
pub use schema::{Field, Schema};
pub use store::{load_view, write_view};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
pub use view::{Domain, NumericView, SpaceMapper};
