//! Mementos: serializable bean-state value objects.
//!
//! The EJB specification forbids serializing entity beans (they are passed
//! by reference), so the paper introduces *mementos* — value objects with
//! the same identity as the bean (`getPrimaryKey`) that carry its state
//! between address spaces. The state captured at transaction start is the
//! **before-image**; the state at transaction end is the **after-image**.
//! The optimistic commit protocol ships and compares exactly these images.

use std::iter;
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
/// The fewest bytes a field takes on the wire: its name's length prefix
/// and its value's tag.
const MIN_FIELD_LEN: usize = 4 + 1;

/// One slot of an image: `(bean, key)` in slot 0, `(name, value)` after it.
type Slot = (Arc<str>, Value);

/// A snapshot of one entity bean's state.
///
/// The image is one shared, copy-on-write slice: `clone` is a reference
/// count, so the common store, a transaction's before-image, its current
/// state and the commit request all point at one image until somebody
/// writes a field, and only the writer's handle is copied then, in one
/// allocation. Equality is by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memento {
    /// Slot 0 is `(bean, key)`; the slots after it are the fields, sorted
    /// by name, every name once: the order the wire and the digest walk,
    /// and what `get` / `set` search.
    image: Arc<[Slot]>,
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

/// Whether `fields` are sorted by name, each name once.
fn is_settled(fields: &[Slot]) -> bool {
    fields.windows(2).all(|pair| pair[0].0 < pair[1].0)
}

/// Moves the last slot of each run of equal names in `fields` (sorted by
/// name) to the front, in order, and returns how many there are.
fn keep_last_of_each(fields: &mut [Slot]) -> usize {
    let mut kept = 0;
    for at in 0..fields.len() {
        if fields.get(at + 1).is_none_or(|next| next.0 != fields[at].0) {
            fields.swap(kept, at);
            kept += 1;
        }
    }
    kept
}

/// Reads one field: its name, shared with `known` when the wire spells it
/// alike, and its value.
fn read_field(r: &mut Reader, known: Option<&Arc<str>>) -> Result<Slot, DecodeError> {
    let name = r.get_shared_str_as(known)?;
    Ok((name, Value::decode(r)?))
}

impl Memento {
    /// The fewest bytes an encoded memento can take (empty bean name, NULL
    /// key, no fields): what a decoder may assume each announced image
    /// costs on the wire when it reserves room for them.
    pub const MIN_ENCODED_LEN: usize = FIXED_LEN + 1;

    /// Creates a memento for bean type `bean` with identity `key`.
    pub fn new(bean: impl Into<Arc<str>>, key: Value) -> Memento {
        Memento {
            image: Arc::from([(bean.into(), key)]),
        }
    }

    /// An image of the bean `names` describes, with identity `key` and
    /// `fields` in any order (of a repeated name the last value stands),
    /// built in one allocation. The bean name and every field name `names`
    /// declares are the descriptor's; an undeclared name is the image's own
    /// copy.
    pub fn from_fields<const N: usize>(
        names: &ImageNames,
        key: Value,
        fields: [(&str, Value); N],
    ) -> Memento {
        let lend = |name: &str| match names.fields.binary_search_by(|known| (**known).cmp(name)) {
            Ok(at) => Arc::clone(&names.fields[at]),
            Err(_) => Arc::from(name),
        };
        let fields = fields.into_iter().map(|(name, value)| (lend(name), value));
        Memento::from_parts(Arc::clone(&names.bean), key, fields)
    }

    /// An image of bean `bean` with identity `key` and `fields` in any
    /// order (of a repeated name the last value stands). It is one
    /// allocation when no name repeats and std can trust the iterator's
    /// length, as it does a map over an array, a range or zipped slices.
    pub(crate) fn from_parts(
        bean: Arc<str>,
        key: Value,
        fields: impl Iterator<Item = Slot>,
    ) -> Memento {
        Memento::settled(iter::once((bean, key)).chain(fields).collect())
    }

    /// `image`, just built and so not shared, with its fields settled:
    /// sorted by name in place, and — only if a name repeats, the last
    /// value standing — copied once more without the repeats.
    fn settled(mut image: Arc<[Slot]>) -> Memento {
        if !is_settled(&image[1..]) {
            // Unshared, so this writes in place. A stable sort keeps the
            // value read last the last of its name.
            let slots = Arc::make_mut(&mut image);
            slots[1..].sort_by(|a, b| a.0.cmp(&b.0));
            if !is_settled(&slots[1..]) {
                let kept = keep_last_of_each(&mut slots[1..]);
                image = image[..1 + kept].iter().cloned().collect();
            }
        }
        Memento { image }
    }

    /// The bean (entity) type name.
    pub fn bean(&self) -> &str {
        &self.image[0].0
    }

    /// The bean identity — the same value the bean's `getPrimaryKey`
    /// returns.
    pub fn primary_key(&self) -> &Value {
        &self.image[0].1
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

    /// Sets a field in place, copying the image first — in one allocation
    /// — if it is shared. An existing field keeps its stored name; a new
    /// one makes a new image a slot longer.
    pub fn set(&mut self, name: impl Into<Arc<str>> + AsRef<str>, value: impl Into<Value>) {
        let value = value.into();
        match self.position(name.as_ref()) {
            Ok(at) => Arc::make_mut(&mut self.image)[1 + at].1 = value,
            Err(at) => {
                let (head, tail) = self.image.split_at(1 + at);
                let field = iter::once((name.into(), value));
                self.image = head
                    .iter()
                    .cloned()
                    .chain(field)
                    .chain(tail.iter().cloned())
                    .collect();
            }
        }
    }

    /// Where field `name` is, or would go, in [`Memento::fields`].
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.fields()
            .binary_search_by(|(field, _)| (**field).cmp(name))
    }

    /// Reads a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let at = self.position(name).ok()?;
        Some(&self.fields()[at].1)
    }

    /// All fields, sorted by name.
    pub fn fields(&self) -> &[(Arc<str>, Value)] {
        &self.image[1..]
    }

    /// Fills `row` with this memento laid out as `schema`'s columns
    /// (missing fields become NULL; the key lands in the primary-key
    /// column), keeping `row`'s buffer.
    pub fn fill_row(&self, schema: &Schema, row: &mut Vec<Value>) {
        row.clear();
        row.extend(schema.columns().iter().enumerate().map(|(i, col)| {
            if i == schema.pk_index() {
                self.primary_key().clone()
            } else {
                self.get(&col.name).cloned().unwrap_or(Value::Null)
            }
        }));
    }

    /// Builds a memento from a row aligned with `schema`.
    pub fn from_row(bean: impl Into<Arc<str>>, schema: &Schema, row: &[Value]) -> Memento {
        let (pk, columns) = (schema.pk_index(), schema.columns());
        let fields = (0..columns.len() - 1).map(|field| {
            let i = if field < pk { field } else { field + 1 };
            (Arc::from(columns[i].name.as_str()), row[i].clone())
        });
        Memento::from_parts(bean.into(), row[pk].clone(), fields)
    }

    /// Encodes the memento onto a wire frame. The stream prefix mirrors
    /// Java serialization's class descriptor: the fully-qualified memento
    /// class name plus a serialVersionUID. The paper's mementos travel as
    /// serialized Java objects, whose wire form carries this metadata with
    /// every instance.
    pub fn encode(&self, w: &mut Writer) {
        let fields = self.fields().iter().map(|(name, value)| (&**name, value));
        encode_image(w, self.bean(), self.primary_key(), fields);
    }

    /// Decodes a memento from a wire frame, in one allocation. With the
    /// `names` of the image's bean in hand the image points at them: the
    /// bean name, and every field name the wire spells as `names` does at
    /// the same position. A name spelled otherwise — all of them for
    /// another bean's `names`, or with none — is the image's own copy, or
    /// the one the reader's string table holds. Fields may arrive in any
    /// order; of a repeated name the last value stands.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation, when the field count is more
    /// than the remaining bytes could hold, or when the class descriptor is
    /// not exactly the one [`Memento::encode`] writes for the bean.
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
        // The count is bounded before the image is reserved: a frame that
        // announces more fields than its remaining bytes could hold would
        // end in truncation anyway.
        if n > r.remaining() / MIN_FIELD_LEN {
            return Err(DecodeError::new("memento field count"));
        }
        // Each field is read into its slot. After a failed read the rest
        // are stand-ins — another handle on the bean's name and NULL —
        // and the image is dropped.
        let stand_in = Arc::clone(&bean);
        let mut failed = None;
        let fields = (0..n).map(|i| {
            if failed.is_none() {
                match read_field(r, lent.get(i)) {
                    Ok(field) => return field,
                    Err(e) => failed = Some(e),
                }
            }
            (Arc::clone(&stand_in), Value::Null)
        });
        let image = iter::once((bean, key)).chain(fields).collect();
        match failed {
            Some(e) => Err(e),
            None => Ok(Memento::settled(image)),
        }
    }

    /// The encoded size in bytes — the unit the paper's commit protocols
    /// ship per image. Adds up what [`Memento::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        let fields: usize = self
            .fields()
            .iter()
            .map(|(name, value)| 4 + name.len() + value.encoded_len())
            .sum();
        FIXED_LEN + 2 * self.bean().len() + self.primary_key().encoded_len() + fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
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
        let mut row = vec![Value::from("stale")];
        m.fill_row(&schema, &mut row);
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
        let mut row = Vec::new();
        m.fill_row(&schema, &mut row);
        assert_eq!(row[2], Value::Null);
    }

    /// `fields` as a wire image of `Account` `uid:1`, in the order given.
    fn account_frame(fields: &[(&str, Value)]) -> Bytes {
        let mut w = Writer::new();
        Memento::new("Account", Value::from("uid:1")).encode(&mut w);
        let head = w.finish();
        let mut w = Writer::new();
        w.put_raw(&head[..head.len() - 4])
            .put_u32(fields.len() as u32);
        for (name, value) in fields {
            w.put_str(name);
            value.encode(&mut w);
        }
        w.finish()
    }

    #[test]
    fn an_empty_image_is_its_identity_alone() {
        let empty = Memento::new("Account", Value::from("uid:1"));
        assert_eq!(empty.bean(), "Account");
        assert_eq!(empty.primary_key(), &Value::from("uid:1"));
        assert!(empty.fields().is_empty());
        assert_eq!(empty.get("Account"), None, "slot 0 is not a field");
        let decoded = Memento::decode(&mut Reader::new(account_frame(&[])), None).unwrap();
        assert_eq!(decoded, empty);
        let names = ImageNames::new("Account".into(), []);
        assert_eq!(
            Memento::from_fields(&names, Value::from("uid:1"), []),
            empty
        );
    }

    #[test]
    fn out_of_order_fields_are_sorted() {
        let backwards = [
            ("logins", Value::from(3)),
            ("balance", Value::from(1_000.0)),
        ];
        let decoded = Memento::decode(&mut Reader::new(account_frame(&backwards)), None);
        assert_eq!(decoded.unwrap(), sample());
        let names = ImageNames::new("Account".into(), ["balance".into(), "logins".into()]);
        let built = Memento::from_fields(&names, Value::from("uid:1"), backwards);
        assert_eq!(built, sample());
        // The descriptor's names, however the caller ordered them.
        for ((name, _), lent) in built.fields().iter().zip(names.fields()) {
            assert!(Arc::ptr_eq(name, lent), "{name} is the image's own copy");
        }
        assert!(Arc::ptr_eq(&built.image[0].0, names.bean()));
    }

    #[test]
    fn of_a_repeated_name_the_last_value_stands() {
        let repeated = [
            ("logins", Value::from(1)),
            ("balance", Value::from(7.0)),
            ("logins", Value::from(2)),
            ("balance", Value::from(1_000.0)),
            ("logins", Value::from(3)),
        ];
        let decoded = Memento::decode(&mut Reader::new(account_frame(&repeated)), None);
        assert_eq!(decoded.unwrap(), sample());
        let names = ImageNames::new("Account".into(), ["balance".into(), "logins".into()]);
        let built = Memento::from_fields(&names, Value::from("uid:1"), repeated.clone());
        assert_eq!(built, sample());
        assert_eq!(built.fields().len(), 2);
        let mut set = Memento::new("Account", Value::from("uid:1"));
        for (name, value) in repeated {
            set.set(name, value);
        }
        assert_eq!(set, sample());
    }

    #[test]
    fn another_beans_names_lend_nothing() {
        let holding = ImageNames::new("Holding".into(), ["balance".into(), "logins".into()]);
        let mut w = Writer::new();
        sample().encode(&mut w);
        let decoded = Memento::decode(&mut Reader::new(w.finish()), Some(&holding)).unwrap();
        assert_eq!(decoded, sample());
        assert!(!Arc::ptr_eq(&decoded.image[0].0, holding.bean()));
        for ((name, _), other) in decoded.fields().iter().zip(holding.fields()) {
            assert_eq!(name, other);
            assert!(!Arc::ptr_eq(name, other), "{name} is another bean's");
        }
    }

    #[test]
    fn a_field_count_the_frame_cannot_hold_is_refused() {
        let one = [("balance", Value::Null)];
        let frame = account_frame(&one);
        assert!(Memento::decode(&mut Reader::new(frame.clone()), None).is_ok());
        // Two fields announced and nine bytes left: a field of the fewest
        // bytes (an empty name, NULL) and a name without its value.
        let head = &frame[..frame.len() - (4 + 4 + "balance".len() + 1)];
        let mut w = Writer::new();
        w.put_raw(head).put_u32(2);
        w.put_u32(0).put_u8(0).put_u32(0);
        let err = Memento::decode(&mut Reader::new(w.finish()), None).unwrap_err();
        assert_eq!(err, DecodeError::new("memento field count"));
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
        assert!(Arc::ptr_eq(&tidy.image[0].0, lent.bean()));
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
