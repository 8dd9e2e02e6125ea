//! Checkpoints: the base image under the write-ahead log.
//!
//! The paper's persistent tier survives process restarts; an in-memory
//! engine needs an explicit mechanism. [`Database::checkpoint`] serializes
//! every table — schema, secondary-index declarations and rows — through
//! the wire codec; [`Database::recover`] decodes that frame to reload the
//! engine in place before replaying the log over it.

use bytes::Bytes;
use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::engine::Database;
use crate::error::DbError;
use crate::schema::ColumnType;
use crate::value::Value;
use crate::DbResult;

const SNAPSHOT_MAGIC: u32 = 0x534C_4944; // "SLID"
const SNAPSHOT_VERSION: u16 = 1;

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Double => 1,
        ColumnType::Varchar => 2,
        ColumnType::Bool => 3,
    }
}

fn type_from_tag(tag: u8) -> Result<ColumnType, DecodeError> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Double,
        2 => ColumnType::Varchar,
        3 => ColumnType::Bool,
        _ => return Err(DecodeError::new("column type tag")),
    })
}

fn type_ddl(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Double => "DOUBLE",
        ColumnType::Varchar => "VARCHAR",
        ColumnType::Bool => "BOOLEAN",
    }
}

impl Database {
    /// Serializes the entire committed state — schemas, secondary-index
    /// declarations, and all rows — to a checkpoint frame.
    ///
    /// The checkpoint reflects a point-in-time view under brief per-table
    /// read latches; call it between transactions (as a checkpointer
    /// would) for a transaction-consistent image.
    pub fn checkpoint(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_u32(SNAPSHOT_MAGIC).put_u16(SNAPSHOT_VERSION);
        let names = self.table_names();
        w.put_u32(names.len() as u32);
        for name in names {
            let schema = self.schema_of(&name).expect("listed table exists");
            w.put_str(&name);
            w.put_u32(schema.columns().len() as u32);
            for col in schema.columns() {
                w.put_str(&col.name);
                w.put_u8(type_tag(col.ty));
            }
            w.put_str(schema.pk_name());
            let indexes = self.index_columns(&name);
            w.put_u32(indexes.len() as u32);
            for col in &indexes {
                w.put_str(col);
            }
            self.encode_rows(&name, &mut w);
        }
        w.finish()
    }
}

/// A decoded table from a checkpoint frame: schema, secondary-index
/// declarations and rows — what [`Database::recover`] reloads in place
/// before replaying the WAL.
pub(crate) struct TableImage {
    pub(crate) name: String,
    pub(crate) cols: Vec<(String, ColumnType)>,
    pub(crate) pk: String,
    pub(crate) indexes: Vec<String>,
    pub(crate) rows: Vec<Vec<Value>>,
}

impl TableImage {
    pub(crate) fn table_ddl(&self) -> String {
        let ddl_cols: Vec<String> = self
            .cols
            .iter()
            .map(|(col, ty)| {
                if *col == self.pk {
                    format!("{col} {} PRIMARY KEY", type_ddl(*ty))
                } else {
                    format!("{col} {}", type_ddl(*ty))
                }
            })
            .collect();
        format!("CREATE TABLE {} ({})", self.name, ddl_cols.join(", "))
    }

    pub(crate) fn index_ddl(&self, col: &str) -> String {
        format!("CREATE INDEX {}_{col} ON {} ({col})", self.name, self.name)
    }
}

/// Decodes a [`Database::checkpoint`] frame into per-table images.
pub(crate) fn decode_checkpoint(frame: Bytes) -> DbResult<Vec<TableImage>> {
    let wire = |e: DecodeError| DbError::Remote(format!("corrupt checkpoint: {e}"));
    let mut r = Reader::new(frame);
    if r.get_u32().map_err(wire)? != SNAPSHOT_MAGIC {
        return Err(DbError::Remote("corrupt checkpoint: bad magic".to_owned()));
    }
    if r.get_u16().map_err(wire)? != SNAPSHOT_VERSION {
        return Err(DbError::Remote(
            "corrupt checkpoint: unsupported version".to_owned(),
        ));
    }
    // The disk's bytes may be arbitrary, so a count is not a budget. Every
    // table, column, index, row and cell takes at least one byte: each
    // vector reserves no more than the frame has left.
    let tables = r.get_u32().map_err(wire)? as usize;
    let mut images = Vec::with_capacity(tables.min(r.remaining()));
    for _ in 0..tables {
        let name = r.get_str().map_err(wire)?;
        let ncols = r.get_u32().map_err(wire)? as usize;
        let mut cols = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            let col = r.get_str().map_err(wire)?;
            let ty = type_from_tag(r.get_u8().map_err(wire)?).map_err(wire)?;
            cols.push((col, ty));
        }
        if cols.is_empty() {
            // A row of no columns would take no bytes at all.
            return Err(DbError::Remote(
                "corrupt checkpoint: a table without columns".to_owned(),
            ));
        }
        let pk = r.get_str().map_err(wire)?;
        let nindexes = r.get_u32().map_err(wire)? as usize;
        let mut indexes = Vec::with_capacity(nindexes.min(r.remaining()));
        for _ in 0..nindexes {
            indexes.push(r.get_str().map_err(wire)?);
        }
        let nrows = r.get_u32().map_err(wire)? as usize;
        let mut rows = Vec::with_capacity(nrows.min(r.remaining()));
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(Value::decode(&mut r).map_err(wire)?);
            }
            rows.push(row);
        }
        images.push(TableImage {
            name,
            cols,
            pk,
            indexes,
            rows,
        });
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SqlConnection;
    use std::sync::Arc;

    fn sample_db() -> Arc<Database> {
        let db = Database::new();
        db.execute_ddl(
            "CREATE TABLE holding (id INT PRIMARY KEY, owner VARCHAR, qty DOUBLE, open BOOLEAN)",
        )
        .unwrap();
        db.execute_ddl("CREATE INDEX holding_owner ON holding (owner)")
            .unwrap();
        db.execute_ddl("CREATE TABLE note (id INT PRIMARY KEY, text VARCHAR)")
            .unwrap();
        let mut conn = db.connect();
        for i in 0..25 {
            conn.execute(
                "INSERT INTO holding (id, owner, qty, open) VALUES (?, ?, ?, ?)",
                &[
                    Value::from(i),
                    Value::from(format!("uid:{}", i % 4)),
                    Value::from(i as f64 / 2.0),
                    Value::from(i % 2 == 0),
                ],
            )
            .unwrap();
        }
        conn.execute("INSERT INTO note (id) VALUES (1)", &[])
            .unwrap(); // NULL text
        db
    }

    /// Every row of every table, as `SELECT *` reads them.
    fn contents(db: &Arc<Database>) -> Vec<crate::ResultSet> {
        let mut conn = db.connect();
        ["holding", "note"]
            .iter()
            .map(|t| conn.execute(&format!("SELECT * FROM {t}"), &[]).unwrap())
            .collect()
    }

    #[test]
    fn checkpoint_recover_round_trip() {
        let db = sample_db();
        let (names, before) = (db.table_names(), contents(&db));
        db.attach_wal();
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.table_names(), names);
        assert_eq!(db.row_count("holding").unwrap(), 25);
        assert_eq!(db.row_count("note").unwrap(), 1);
        assert_eq!(contents(&db), before, "contents diverged");
        // secondary index survives (probe works and stays consistent)
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT id FROM holding WHERE owner = 'uid:1'", &[])
            .unwrap();
        assert_eq!(rs.len(), 6); // ids 1, 5, 9, 13, 17, 21

        // and the recovered engine is writable
        conn.execute("DELETE FROM holding WHERE id = 1", &[])
            .unwrap();
        let rs = conn
            .execute("SELECT id FROM holding WHERE owner = 'uid:1'", &[])
            .unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_checkpoint(Bytes::from_static(b"junk")).is_err());
        let db = sample_db();
        let frame = db.checkpoint();
        assert_eq!(decode_checkpoint(frame.clone()).unwrap().len(), 2);
        let cut = frame.slice(0..frame.len() / 2);
        assert!(decode_checkpoint(cut).is_err());
        let mut corrupt = frame.to_vec();
        corrupt[0] = 0;
        assert!(decode_checkpoint(Bytes::from(corrupt)).is_err());
    }

    /// A checkpoint announcing `u32::MAX` tables, columns, indexes or rows
    /// is an error, not a reservation of hundreds of gigabytes.
    #[test]
    fn a_hostile_count_is_an_error_not_an_allocation() {
        let hostile = |body: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.put_u32(SNAPSHOT_MAGIC).put_u16(SNAPSHOT_VERSION);
            body(&mut w);
            w.put_raw(&[0xAB; 64]);
            w.finish()
        };
        let max = u32::MAX;
        // One table `t` whose one column `id` is its key.
        let keyed = |w: &mut Writer| {
            w.put_u32(1).put_str("t").put_u32(1).put_str("id");
            w.put_u8(0).put_str("id");
        };
        let frames = [
            hostile(&|w| {
                w.put_u32(max);
            }),
            hostile(&|w| {
                w.put_u32(1).put_str("t").put_u32(max);
            }),
            hostile(&|w| {
                keyed(w);
                w.put_u32(max);
            }),
            hostile(&|w| {
                keyed(w);
                w.put_u32(0).put_u32(max);
            }),
            // No columns: rows that would take no bytes.
            hostile(&|w| {
                w.put_u32(1).put_str("t").put_u32(0).put_str("id");
                w.put_u32(0).put_u32(max);
            }),
        ];
        for (i, frame) in frames.into_iter().enumerate() {
            assert!(decode_checkpoint(frame).is_err(), "frame {i}");
        }
    }

    #[test]
    fn the_checkpoint_decoder_never_panics() {
        let empty = Database::new();
        let valid = [sample_db().checkpoint(), empty.checkpoint()];
        let accepted = crate::wal::tests::search_decoder(0xc4ec_5eed, &valid, |raw| {
            decode_checkpoint(raw).is_ok()
        });
        assert!(
            accepted > 100,
            "only {accepted} flipped checkpoints decoded"
        );
    }

    #[test]
    fn empty_database_round_trips() {
        let db = Database::new();
        db.attach_wal();
        db.crash();
        db.recover().unwrap();
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn recovered_image_excludes_uncommitted_state() {
        let db = sample_db();
        let mut conn = db.connect();
        conn.begin().unwrap();
        conn.execute("DELETE FROM holding WHERE id = 0", &[])
            .unwrap();
        conn.rollback().unwrap();
        db.attach_wal();
        // A transaction still open when the machine dies is lost with it.
        conn.begin().unwrap();
        conn.execute("DELETE FROM holding WHERE id = 2", &[])
            .unwrap();
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.row_count("holding").unwrap(), 25);
    }
}
