//! Mementos: serializable bean-state value objects.
//!
//! The EJB specification forbids serializing entity beans (they are passed
//! by reference), so the paper introduces *mementos* — value objects with
//! the same identity as the bean (`getPrimaryKey`) that carry its state
//! between address spaces. The state captured at transaction start is the
//! **before-image**; the state at transaction end is the **after-image**.
//! The optimistic commit protocol ships and compares exactly these images.

use std::sync::Arc;

use sli_simnet::wire::{DecodeError, Reader, Writer};

use sli_datastore::{Schema, Value};

/// Java serialization's class descriptor for a memento is
/// `{CLASS_PREFIX}{bean}{CLASS_SUFFIX}`.
const CLASS_PREFIX: &str = "com.ibm.websphere.samples.trade.ejb.";
const CLASS_SUFFIX: &str = "Memento";
const SERIAL_VERSION_UID: u64 = 0x05CA_1AB1_EC0F_FEE5;
/// What every encoded memento carries whatever it holds: the descriptor's
/// length prefix and constant parts, the uid, the bean's length prefix and
/// the field count.
const FIXED_LEN: usize = 4 + CLASS_PREFIX.len() + CLASS_SUFFIX.len() + 8 + 4 + 4;

/// A snapshot of one entity bean's state.
///
/// The image is shared and copy-on-write: `clone` is a reference count, so
/// the common store, a transaction's before-image, its current state and
/// the commit request all point at one image until somebody writes a field,
/// and only the writer's handle is copied then. Equality is by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memento {
    image: Arc<Image>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Image {
    bean: Arc<str>,
    key: Value,
    /// Sorted by name, every name once: the order the wire and the digest
    /// walk, and what `get` / `set` search.
    fields: Vec<(Arc<str>, Value)>,
}

impl Image {
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.fields
            .binary_search_by(|(field, _)| (**field).cmp(name))
    }

    /// Puts `value` where `name` sorts: over the value of a field that
    /// exists, which keeps its stored name, or as a new field.
    fn place(&mut self, name: impl Into<Arc<str>> + AsRef<str>, value: Value) {
        match self.position(name.as_ref()) {
            Ok(at) => self.fields[at].1 = value,
            Err(at) => self.fields.insert(at, (name.into(), value)),
        }
    }
}

/// The names a deployment descriptor lends to the images of its bean: the
/// bean's own, and its fields' in name order — the order an image keeps
/// them in. Names belong to the descriptor; an image built or decoded with
/// one in hand points at these instead of owning copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageNames {
    bean: Arc<str>,
    fields: Vec<Arc<str>>,
}

impl ImageNames {
    /// The names of bean `bean` with fields `fields` (in any order, a
    /// repeated name counted once).
    pub fn new(bean: Arc<str>, fields: impl IntoIterator<Item = Arc<str>>) -> ImageNames {
        let mut fields: Vec<Arc<str>> = fields.into_iter().collect();
        fields.sort_unstable();
        fields.dedup();
        ImageNames { bean, fields }
    }

    /// The bean type name.
    pub fn bean(&self) -> &Arc<str> {
        &self.bean
    }

    /// The field names, sorted, each once.
    pub fn fields(&self) -> &[Arc<str>] {
        &self.fields
    }
}

/// Writes an image's wire form — what [`Memento::encode`] writes — from
/// its parts: `fields` in name order, each name once.
pub(crate) fn encode_image<'a>(
    w: &mut Writer,
    bean: &str,
    key: &Value,
    fields: impl ExactSizeIterator<Item = (&'a str, &'a Value)>,
) {
    w.put_str_parts(&[CLASS_PREFIX, bean, CLASS_SUFFIX]);
    w.put_u64(SERIAL_VERSION_UID);
    w.put_str(bean);
    key.encode(w);
    w.put_u32(fields.len() as u32);
    for (name, value) in fields {
        w.put_str(name);
        value.encode(w);
    }
}

impl Memento {
    /// The fewest bytes an encoded memento can take (empty bean name, NULL
    /// key, no fields): what a decoder may assume each announced image
    /// costs on the wire when it reserves room for them.
    pub const MIN_ENCODED_LEN: usize = FIXED_LEN + 1;

    /// Creates a memento for bean type `bean` with identity `key`.
    pub fn new(bean: impl Into<Arc<str>>, key: Value) -> Memento {
        Memento::from_sorted(bean.into(), key, Vec::new())
    }

    /// An image of `fields`, which the caller has sorted by name with no
    /// name repeated.
    pub(crate) fn from_sorted(
        bean: Arc<str>,
        key: Value,
        fields: Vec<(Arc<str>, Value)>,
    ) -> Memento {
        debug_assert!(fields.windows(2).all(|pair| pair[0].0 < pair[1].0));
        Memento {
            image: Arc::new(Image { bean, key, fields }),
        }
    }

    /// The bean (entity) type name.
    pub fn bean(&self) -> &str {
        &self.image.bean
    }

    /// The bean identity — the same value the bean's `getPrimaryKey`
    /// returns.
    pub fn primary_key(&self) -> &Value {
        &self.image.key
    }

    /// Sets a field (builder style).
    pub fn with_field(
        mut self,
        name: impl Into<Arc<str>> + AsRef<str>,
        value: impl Into<Value>,
    ) -> Memento {
        self.set(name, value);
        self
    }

    /// Sets a field in place, copying the image first if it is shared. An
    /// existing field keeps its stored name.
    pub fn set(&mut self, name: impl Into<Arc<str>> + AsRef<str>, value: impl Into<Value>) {
        Arc::make_mut(&mut self.image).place(name, value.into());
    }

    /// Reads a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let at = self.image.position(name).ok()?;
        Some(&self.image.fields[at].1)
    }

    /// All fields, sorted by name.
    pub fn fields(&self) -> &[(Arc<str>, Value)] {
        &self.image.fields
    }

    /// Converts this memento into a row aligned with `schema` (missing
    /// fields become NULL; the key lands in the primary-key column).
    pub fn to_row(&self, schema: &Schema) -> Vec<Value> {
        schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if i == schema.pk_index() {
                    self.image.key.clone()
                } else {
                    self.get(&col.name).cloned().unwrap_or(Value::Null)
                }
            })
            .collect()
    }

    /// Builds a memento from a row aligned with `schema`.
    pub fn from_row(bean: impl Into<Arc<str>>, schema: &Schema, row: &[Value]) -> Memento {
        let mut m = Memento::new(bean, row[schema.pk_index()].clone());
        for (i, col) in schema.columns().iter().enumerate() {
            if i != schema.pk_index() {
                m.set(col.name.as_str(), row[i].clone());
            }
        }
        m
    }

    /// Encodes the memento onto a wire frame. The stream prefix mirrors
    /// Java serialization's class descriptor: the fully-qualified memento
    /// class name plus a serialVersionUID. The paper's mementos travel as
    /// serialized Java objects, whose wire form carries this metadata with
    /// every instance.
    pub fn encode(&self, w: &mut Writer) {
        let image = &*self.image;
        let fields = image.fields.iter().map(|(name, value)| (&**name, value));
        encode_image(w, &image.bean, &image.key, fields);
    }

    /// Decodes a memento from a wire frame. With the `names` of the image's
    /// bean in hand the image points at them: the bean name, and every
    /// field name the wire spells as `names` does at the same position. A
    /// name spelled otherwise — all of them for another bean's `names`, or
    /// with none — is the image's own copy, or the one the reader's string
    /// table holds. Fields may arrive in any order; of a repeated name the
    /// last value stands.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation, or when the class descriptor
    /// is not exactly the one [`Memento::encode`] writes for the bean.
    pub fn decode(r: &mut Reader, names: Option<&ImageNames>) -> Result<Memento, DecodeError> {
        let class = r.get_bytes()?;
        let _uid = r.get_u64()?;
        let bean = r.get_shared_str_as(names.map(|n| &n.bean))?;
        let named = class
            .strip_prefix(CLASS_PREFIX.as_bytes())
            .and_then(|rest| rest.strip_suffix(CLASS_SUFFIX.as_bytes()));
        if named != Some(bean.as_bytes()) {
            return Err(DecodeError::new("memento class descriptor"));
        }
        // Another bean's descriptor lends nothing.
        let lent = names
            .filter(|n| n.bean == bean)
            .map_or(&[][..], |n| &n.fields);
        let key = Value::decode(r)?;
        let n = r.get_u32()? as usize;
        // The count is not trusted with a reservation: room for the fields
        // the bean declares or, with no descriptor to say, for the slots
        // the remaining bytes would fill. A truncated frame ends the loop
        // at its first read.
        let room = if lent.is_empty() {
            r.remaining() / std::mem::size_of::<(Arc<str>, Value)>()
        } else {
            lent.len()
        };
        let mut image = Image {
            bean,
            key,
            fields: Vec::with_capacity(n.min(room)),
        };
        for i in 0..n {
            let name = r.get_shared_str_as(lent.get(i))?;
            let value = Value::decode(r)?;
            match image.fields.last() {
                // Out of order or repeated: placed as `set` places it.
                Some((last, _)) if *last >= name => image.place(name, value),
                _ => image.fields.push((name, value)),
            }
        }
        Ok(Memento {
            image: Arc::new(image),
        })
    }

    /// The encoded size in bytes — the unit the paper's commit protocols
    /// ship per image. Adds up what [`Memento::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        let image = &*self.image;
        let fields: usize = image
            .fields
            .iter()
            .map(|(name, value)| 4 + name.len() + value.encoded_len())
            .sum();
        FIXED_LEN + 2 * image.bean.len() + image.key.encoded_len() + fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_datastore::{Column, ColumnType};

    fn account_schema() -> Schema {
        Schema::new(
            "account",
            vec![
                Column::new("userid", ColumnType::Varchar),
                Column::new("balance", ColumnType::Double),
                Column::new("logins", ColumnType::Int),
            ],
            "userid",
        )
        .unwrap()
    }

    fn sample() -> Memento {
        Memento::new("Account", Value::from("uid:1"))
            .with_field("balance", 1_000.0)
            .with_field("logins", 3)
    }

    #[test]
    fn identity_and_fields() {
        let m = sample();
        assert_eq!(m.bean(), "Account");
        assert_eq!(m.primary_key(), &Value::from("uid:1"));
        assert_eq!(m.get("balance"), Some(&Value::from(1_000.0)));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn row_round_trip() {
        let schema = account_schema();
        let m = sample();
        let row = m.to_row(&schema);
        assert_eq!(
            row,
            vec![Value::from("uid:1"), Value::from(1_000.0), Value::from(3)]
        );
        let back = Memento::from_row("Account", &schema, &row);
        assert_eq!(back, m);
    }

    #[test]
    fn missing_fields_become_null_in_rows() {
        let schema = account_schema();
        let m = Memento::new("Account", Value::from("uid:2")).with_field("balance", 5.0);
        let row = m.to_row(&schema);
        assert_eq!(row[2], Value::Null);
    }

    #[test]
    fn wire_round_trip() {
        let m = sample();
        let mut w = Writer::new();
        m.encode(&mut w);
        let frame = w.finish();
        assert_eq!(frame.len(), m.encoded_len());
        let back = Memento::decode(&mut Reader::new(frame), None).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Class descriptor (one length prefix over prefix + bean + suffix),
        // serialVersionUID, bean, key, field count, then name/value pairs
        // in name order — byte for byte what every earlier revision wrote.
        let expected = concat!(
            "00000032636f6d2e69626d2e7765627370686572652e73616d706c65732e7472",
            "6164652e656a622e4163636f756e744d656d656e746f05ca1ab1ec0ffee50000",
            "00074163636f756e7404000000057569643a31000000020000000762616c616e",
            "636503408f400000000000000000066c6f67696e73020000000000000003",
        );
        let mut w = Writer::new();
        sample().encode(&mut w);
        let hex: String = w.finish().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
        assert_eq!(sample().encoded_len(), expected.len() / 2);
        let empty = Memento::new("", Value::Null);
        assert_eq!(empty.encoded_len(), Memento::MIN_ENCODED_LEN);
    }

    #[test]
    fn decode_requires_the_exact_class_descriptor() {
        let encode_as = |class: &str, bean: &str| {
            let mut w = Writer::new();
            w.put_str(class).put_u64(SERIAL_VERSION_UID).put_str(bean);
            Value::from(1).encode(&mut w);
            w.put_u32(0);
            Memento::decode(&mut Reader::new(w.finish()), None)
        };
        let account = "com.ibm.websphere.samples.trade.ejb.AccountMemento";
        assert_eq!(
            encode_as(account, "Account").unwrap(),
            Memento::new("Account", Value::from(1))
        );
        // A descriptor that merely ends with `{bean}Memento` names another
        // class.
        assert!(encode_as(account, "t").is_err());
        assert!(encode_as(account, "").is_err());
        assert!(encode_as("AccountMemento", "Account").is_err());
        assert!(encode_as(&format!("x{account}"), "Account").is_err());
        assert!(encode_as(&format!("{account}x"), "Account").is_err());
    }

    #[test]
    fn decode_borrows_the_names_it_is_lent_and_sorts_what_it_reads() {
        let lent = ImageNames::new("Account".into(), ["logins".into(), "balance".into()]);
        let mut w = Writer::new();
        sample().encode(&mut w);
        let tidy = Memento::decode(&mut Reader::new(w.finish()), Some(&lent)).unwrap();
        assert_eq!(tidy, sample());
        assert!(Arc::ptr_eq(&tidy.image.bean, lent.bean()));
        for ((name, _), lent) in tidy.fields().iter().zip(lent.fields()) {
            assert!(Arc::ptr_eq(name, lent), "{name} is the image's own copy");
        }
        // The same image with its fields named backwards and one of them
        // twice: sorted, the last value standing, the names its own.
        let mut w = Writer::new();
        Memento::new("Account", Value::from("uid:1")).encode(&mut w);
        let head = w.finish();
        let mut w = Writer::new();
        w.put_raw(&head[..head.len() - 4]).put_u32(3);
        for (name, value) in [
            ("logins", Value::from(3)),
            ("balance", Value::from(7.0)),
            ("balance", Value::from(1_000.0)),
        ] {
            w.put_str(name);
            value.encode(&mut w);
        }
        let untidy = Memento::decode(&mut Reader::new(w.finish()), Some(&lent)).unwrap();
        assert_eq!(untidy, sample());
        assert!(!Arc::ptr_eq(&untidy.fields()[0].0, &lent.fields()[0]));
    }

    #[test]
    fn a_clone_shares_the_image_until_it_is_written() {
        let original = sample();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.image, &copy.image));
        copy.set("balance", 1.0);
        assert!(!Arc::ptr_eq(&original.image, &copy.image));
        assert_eq!(original, sample(), "the write stayed in the copy");
        // An unshared image is written in place, under its stored name.
        let before = Arc::as_ptr(&copy.image);
        copy.set(String::from("balance"), 2.0);
        assert_eq!(Arc::as_ptr(&copy.image), before);
        assert_eq!(copy.get("balance"), Some(&Value::from(2.0)));
    }

    #[test]
    fn set_overwrites() {
        let mut m = sample();
        m.set("balance", 2_000.0);
        assert_eq!(m.get("balance"), Some(&Value::from(2_000.0)));
        assert_eq!(m.fields().len(), 2);
    }

    #[test]
    fn before_and_after_images_compare_by_value() {
        let before = sample();
        let mut after = before.clone();
        assert_eq!(before, after);
        after.set("balance", 999.0);
        assert_ne!(before, after);
    }
}
