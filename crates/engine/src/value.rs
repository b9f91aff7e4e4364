//! Typed values, rows, schemas, and their byte-level serialization.
//!
//! Rows are serialized into compact byte images for three consumers: B+tree
//! leaf payloads, WAL before/after images, and log-shipping volume
//! accounting. The format is self-describing (a tag byte per value) so a
//! decoded image never needs the schema to round-trip.

use std::fmt;

/// The type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (also used for keys and credit amounts in cents).
    Int,
    /// Variable-length UTF-8 string.
    Text,
    /// Timestamp as microseconds since the epoch.
    Timestamp,
}

/// A single typed value.
///
/// The derived total order compares same-type values naturally (`Int` and
/// `Timestamp` numerically, `Text` lexicographically by `str` order) and
/// ranks mixed types by variant declaration order — schemas keep columns
/// homogeneous, so cross-type comparisons only arise in sort keys over
/// heterogeneous tuples, where any stable total order suffices.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// UTF-8 string.
    Text(String),
    /// Timestamp (microseconds since epoch).
    Timestamp(i64),
}

impl Value {
    /// The value's type.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Text(_) => DataType::Text,
            Value::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// The integer inside, panicking with context otherwise (engine-internal
    /// use where the schema guarantees the type).
    pub fn expect_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// The string inside, panicking otherwise.
    pub fn expect_text(&self) -> &str {
        match self {
            Value::Text(s) => s,
            other => panic!("expected Text, found {other:?}"),
        }
    }

    /// The same value, borrowed.
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(x) => ValueRef::Int(*x),
            Value::Text(s) => ValueRef::Text(s),
            Value::Timestamp(x) => ValueRef::Timestamp(*x),
        }
    }

    /// Append this value's tagged serialization to `out`. The write path
    /// encodes whole rows through one caller-owned scratch buffer, so hot
    /// loops pay zero allocations per value.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out);
    }
}

/// A value borrowed from where it already lives: a statement parameter, a
/// SQL literal or a column of a row image. The SQL write path evaluates to
/// these and encodes them straight into the new image, so a text value is
/// never copied into a `String` on the way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ValueRef<'a> {
    /// Integer.
    Int(i64),
    /// UTF-8 string.
    Text(&'a str),
    /// Timestamp (microseconds since epoch).
    Timestamp(i64),
}

impl ValueRef<'_> {
    /// The value's type.
    pub(crate) fn data_type(self) -> DataType {
        match self {
            ValueRef::Int(_) => DataType::Int,
            ValueRef::Text(_) => DataType::Text,
            ValueRef::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Append the tagged serialization to `out` — the one encoder behind
    /// [`Value::encode_into`], [`Row::encode_into`] and [`RowWriter`].
    ///
    /// Each field's head goes in as one slice, one capacity check rather
    /// than one per byte group, and `inline(always)` lets a caller that
    /// names the variant ([`RowWriter::int`] and its siblings) keep only
    /// that arm: the bulk load encodes every generated value here.
    #[inline(always)]
    pub(crate) fn encode_into(self, out: &mut Vec<u8>) {
        let word = |tag: u8, x: i64| {
            let mut head = [tag; 9];
            head[1..].copy_from_slice(&x.to_le_bytes());
            head
        };
        match self {
            ValueRef::Int(x) => out.extend_from_slice(&word(TAG_INT, x)),
            ValueRef::Text(s) => {
                assert!(s.len() <= u16::MAX as usize, "text too long");
                let [lo, hi] = (s.len() as u16).to_le_bytes();
                out.extend_from_slice(&[TAG_TEXT, lo, hi]);
                out.extend_from_slice(s.as_bytes());
            }
            ValueRef::Timestamp(x) => out.extend_from_slice(&word(TAG_TS, x)),
        }
    }

    /// An owned copy.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Int(x) => Value::Int(x),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Timestamp(x) => Value::Timestamp(x),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (upper-cased by convention, e.g. `O_ID`).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: &str, ty: DataType) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty,
        }
    }

    /// The type rule: this column, at position `column`, holds `found`.
    #[inline]
    fn check(&self, column: usize, found: DataType) -> Result<(), SchemaError> {
        if found == self.ty {
            Ok(())
        } else {
            Err(SchemaError::Type {
                column,
                expected: self.ty,
                found,
            })
        }
    }
}

/// An ordered set of columns. Column 0 is always the `Int` primary key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema; panics unless column 0 is an `Int` (the clustered
    /// key) and the column count fits the row image's one-byte count.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        assert!(!columns.is_empty(), "schema needs at least the key column");
        assert!(
            columns.len() <= u8::MAX as usize,
            "a schema holds at most 255 columns (the row image counts them in one byte), got {}",
            columns.len()
        );
        assert_eq!(
            columns[0].ty,
            DataType::Int,
            "column 0 must be the Int primary key"
        );
        Schema { columns }
    }

    /// The columns in order.
    pub(crate) fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column named `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Check that `row` conforms to this schema.
    pub(crate) fn validate(&self, row: &Row) -> Result<(), SchemaError> {
        self.check_arity(row.values.len())?;
        for (i, (v, c)) in row.values.iter().zip(&self.columns).enumerate() {
            c.check(i, v.data_type())?;
        }
        Ok(())
    }

    /// Check that a row of `found` values has this schema's column count.
    fn check_arity(&self, found: usize) -> Result<(), SchemaError> {
        if found == self.columns.len() {
            Ok(())
        } else {
            Err(SchemaError::Arity {
                expected: self.columns.len(),
                found,
            })
        }
    }

    /// Check that a value of type `found` may be stored in column `column`
    /// — the rule [`Schema::validate`] applies to every column, for writers
    /// that encode a row column by column without building a [`Row`].
    #[inline]
    pub(crate) fn check_column(&self, column: usize, found: DataType) -> Result<(), SchemaError> {
        self.columns[column].check(column, found)
    }
}

/// A schema violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// Wrong number of values.
    Arity {
        /// Columns in the schema.
        expected: usize,
        /// Values in the row.
        found: usize,
    },
    /// Wrong type in a column.
    Type {
        /// Offending column index.
        column: usize,
        /// Declared type.
        expected: DataType,
        /// Provided type.
        found: DataType,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Arity { expected, found } => {
                write!(f, "row has {found} values, schema has {expected} columns")
            }
            SchemaError::Type {
                column,
                expected,
                found,
            } => write!(f, "column {column}: expected {expected:?}, found {found:?}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A row of values. The first value is the primary key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// The values, aligned with the schema's columns.
    pub values: Vec<Value>,
}

const TAG_INT: u8 = 1;
const TAG_TEXT: u8 = 2;
const TAG_TS: u8 = 3;

impl Row {
    /// A row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The primary key (column 0).
    pub fn key(&self) -> i64 {
        self.values[0].expect_int()
    }

    /// Serialize to a compact, self-describing byte image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.values.len() * 9);
        self.encode_into(&mut out);
        out
    }

    /// Append the serialized image to `out`; callers reuse one scratch
    /// buffer across rows and clear it between encodes.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.values.len() as u8);
        for v in &self.values {
            v.encode_into(out);
        }
    }

    /// Decode an image produced by [`Row::encode`] into an owned row: the
    /// full walk of [`RowRef::to_row`], with its panics on corruption.
    pub fn decode(bytes: &[u8]) -> Row {
        RowRef::new(bytes).to_row()
    }
}

impl AsRef<[Value]> for Row {
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

/// Writes one bulk-loaded row straight into its image, column by column:
/// the row builder of [`Database::load_rows`](crate::Database::load_rows).
/// Each call checks its value's type against the column it fills, the rule
/// every insert is checked by, and encodes it through the encoder
/// [`Row::encode`] uses, so the image is byte-for-byte the row's. Every
/// loaded row goes through here, the [`Value`]s lent to
/// [`Database::load_bulk`](crate::Database::load_bulk) included.
///
/// A row that does not fit its schema — a value of the wrong type, or a
/// row with too few or too many columns at its end — is a generator bug and
/// panics `bulk rows must fit schema`.
pub struct RowWriter<'a> {
    schema: &'a Schema,
    image: &'a mut Vec<u8>,
    column: usize,
}

impl<'a> RowWriter<'a> {
    /// Start a row in `image`, which is cleared: the count byte, which the
    /// schema fixes, and no column yet.
    #[inline]
    pub(crate) fn new(schema: &'a Schema, image: &'a mut Vec<u8>) -> Self {
        image.clear();
        image.push(schema.len() as u8);
        RowWriter {
            schema,
            image,
            column: 0,
        }
    }

    /// Write the next column, an `Int`.
    #[inline]
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.put(ValueRef::Int(v))
    }

    /// Write the next column, a `Text`; panics `text too long` past
    /// `u16::MAX` bytes.
    #[inline]
    pub fn text(&mut self, v: &str) -> &mut Self {
        self.put(ValueRef::Text(v))
    }

    /// Write the next column, a `Timestamp`.
    #[inline]
    pub fn timestamp(&mut self, v: i64) -> &mut Self {
        self.put(ValueRef::Timestamp(v))
    }

    /// Write the next column. Columns past the schema's last are encoded
    /// unchecked and counted, for [`RowWriter::finish`] to refuse.
    #[inline(always)]
    pub(crate) fn put(&mut self, v: ValueRef<'_>) -> &mut Self {
        if self.column < self.schema.len() {
            if let Err(e) = self.schema.check_column(self.column, v.data_type()) {
                misfit(e);
            }
        }
        v.encode_into(self.image);
        self.column += 1;
        self
    }

    /// End the row: panics unless it holds exactly the schema's columns,
    /// and returns its key, column 0 (an `Int` under every schema).
    #[inline]
    pub(crate) fn finish(self) -> i64 {
        if let Err(e) = self.schema.check_arity(self.column) {
            misfit(e);
        }
        // The count byte, column 0's tag, then its eight bytes.
        let key = self.image[2..10].try_into().expect("column 0 is an Int");
        i64::from_le_bytes(key)
    }
}

/// The panic of a bulk row that does not fit its schema, kept out of the
/// writer's inlined path.
#[cold]
#[inline(never)]
fn misfit(e: SchemaError) -> ! {
    panic!("bulk rows must fit schema: {e:?}")
}

/// A borrowed view over an encoded row image: fields are read from the
/// bytes on demand, so a reader that wants one column (or none — a scan
/// visitor that only counts) never materialises a `Vec<Value>` or a
/// `String`. The page, WAL record or version chain that owns the image
/// outlives the view.
///
/// **Images are trusted.** This is the one place the engine says so: a row
/// image only ever comes from `Row::encode_into` after
/// `Schema::validate` (pages, version chains) or from a WAL record that
/// passed the CRC codec (redo, undo), so a malformed image is an engine bug
/// and not input to validate. The view is lazy about it: an unknown tag, a
/// short image, bad UTF-8 or a column of another type panics in the
/// accessor that reads those bytes, and columns before the damage still
/// read. [`RowRef::new`] walks tags and bounds up front under
/// `debug_assert!`, so test builds still fail where the image enters.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    image: &'a [u8],
}

/// One field as the walker finds it; text stays bytes until an accessor
/// asks for the string.
enum Field<'a> {
    Int(i64),
    Text(&'a [u8]),
    Timestamp(i64),
}

impl<'a> Field<'a> {
    fn text(bytes: &'a [u8]) -> &'a str {
        std::str::from_utf8(bytes).expect("corrupt text value")
    }

    #[inline(always)]
    fn to_value(&self) -> Value {
        match *self {
            Field::Int(x) => Value::Int(x),
            Field::Text(b) => Value::Text(Self::text(b).to_string()),
            Field::Timestamp(x) => Value::Timestamp(x),
        }
    }

    fn borrowed(&self) -> ValueRef<'a> {
        match *self {
            Field::Int(x) => ValueRef::Int(x),
            Field::Text(b) => ValueRef::Text(Self::text(b)),
            Field::Timestamp(x) => ValueRef::Timestamp(x),
        }
    }
}

/// The walker's one step, and the only code that reads the tag layout
/// [`Value::encode_into`] writes: the field at the head of `bytes` and the
/// bytes after it.
///
/// `inline(always)` here and on [`Field::to_value`] is measured, not habit:
/// left to the inliner both stay out of line and hand every field back
/// through memory, which makes `to_row` 2–3× slower than the hand-rolled
/// decoder it replaced (6-column row: 48 ns vs 95–140 ns; 48 ns with them).
#[inline(always)]
fn read_field(bytes: &[u8]) -> (Field<'_>, &[u8]) {
    const SHORT: &str = "corrupt row image: short";
    let (tag, body) = bytes.split_first().expect(SHORT);
    match *tag {
        TAG_INT => {
            let (x, rest) = body.split_first_chunk::<8>().expect(SHORT);
            (Field::Int(i64::from_le_bytes(*x)), rest)
        }
        TAG_TEXT => {
            let (len, rest) = body.split_first_chunk::<2>().expect(SHORT);
            let (text, rest) = rest
                .split_at_checked(u16::from_le_bytes(*len) as usize)
                .expect(SHORT);
            (Field::Text(text), rest)
        }
        TAG_TS => {
            let (x, rest) = body.split_first_chunk::<8>().expect(SHORT);
            (Field::Timestamp(i64::from_le_bytes(*x)), rest)
        }
        other => panic!("corrupt row image: unknown tag {other}"),
    }
}

/// The fields of an image in column order.
struct Fields<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = Field<'a>;

    #[inline]
    fn next(&mut self) -> Option<Field<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let field;
        (field, self.rest) = read_field(self.rest);
        Some(field)
    }
}

/// A view equals an owned row when both hold the same columns: same count,
/// same type and same value in every position. Nothing is decoded or
/// allocated, so an oracle can hold a whole table of images against its
/// expected rows for the price of the walk.
impl PartialEq<Row> for RowRef<'_> {
    fn eq(&self, row: &Row) -> bool {
        self.len() == row.values.len()
            && self
                .fields()
                .zip(&row.values)
                .all(|(field, value)| match (field, value) {
                    (Field::Int(a), Value::Int(b)) => a == *b,
                    (Field::Timestamp(a), Value::Timestamp(b)) => a == *b,
                    (Field::Text(a), Value::Text(b)) => a == b.as_bytes(),
                    _ => false,
                })
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.fields().map(|field| field.borrowed()))
            .finish()
    }
}

impl<'a> RowRef<'a> {
    /// View `image`, which must have been produced by [`Row::encode`].
    pub fn new(image: &'a [u8]) -> Self {
        let view = RowRef { image };
        debug_assert_eq!(view.fields().count(), view.len(), "corrupt row image");
        view
    }

    fn fields(self) -> Fields<'a> {
        Fields {
            rest: &self.image[1..],
            left: self.len(),
        }
    }

    fn field(self, col: usize) -> Field<'a> {
        self.fields()
            .nth(col)
            .unwrap_or_else(|| panic!("column {col} of a {}-column row", self.len()))
    }

    /// Number of columns.
    pub fn len(self) -> usize {
        self.image[0] as usize
    }

    /// The encoded image the view reads. The encoding is canonical (a
    /// count byte, then per value a tag and a payload the value alone
    /// determines), so two images are byte-equal exactly when the view
    /// equals the row the other one encodes.
    pub fn image(self) -> &'a [u8] {
        self.image
    }

    /// True for a row of no columns (never the case under a [`Schema`]).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The integer in column `col`; panics on any other type.
    pub fn int(self, col: usize) -> i64 {
        match self.field(col) {
            Field::Int(x) => x,
            _ => panic!("column {col} is not an Int"),
        }
    }

    /// The timestamp in column `col`; panics on any other type.
    pub fn timestamp(self, col: usize) -> i64 {
        match self.field(col) {
            Field::Timestamp(x) => x,
            _ => panic!("column {col} is not a Timestamp"),
        }
    }

    /// The string in column `col`, borrowed from the image; panics on any
    /// other type.
    pub fn text(self, col: usize) -> &'a str {
        match self.field(col) {
            Field::Text(b) => Field::text(b),
            _ => panic!("column {col} is not a Text"),
        }
    }

    /// Column `col` as an owned value.
    pub fn value(self, col: usize) -> Value {
        self.field(col).to_value()
    }

    /// Column `col`, borrowed from the image.
    pub(crate) fn get(self, col: usize) -> ValueRef<'a> {
        self.field(col).borrowed()
    }

    /// Append to `out` the image of this row with some columns replaced:
    /// `replace(col)` supplies the new value of a column or `None` to keep
    /// it, in which case the column's bytes are copied as they stand. This
    /// is how an UPDATE builds its after-image without decoding the row.
    pub(crate) fn rewrite<'v, E>(
        self,
        out: &mut Vec<u8>,
        mut replace: impl FnMut(usize) -> Result<Option<ValueRef<'v>>, E>,
    ) -> Result<(), E> {
        out.push(self.image[0]);
        let mut rest = &self.image[1..];
        for col in 0..self.len() {
            let (_, after) = read_field(rest);
            match replace(col)? {
                Some(v) => v.encode_into(out),
                None => out.extend_from_slice(&rest[..rest.len() - after.len()]),
            }
            rest = after;
        }
        Ok(())
    }

    /// Decode every column into an owned row.
    pub fn to_row(self) -> Row {
        let mut values = Vec::with_capacity(self.len());
        for field in self.fields() {
            values.push(field.to_value());
        }
        Row::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Int(42),
            Value::Text("PAID".to_string()),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Int(-5),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let row = sample_row();
        assert_eq!(Row::decode(&row.encode()), row);
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let row = sample_row();
        let mut buf = b"prefix".to_vec();
        row.encode_into(&mut buf);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(&buf[6..], row.encode().as_slice());
        // Reuse pattern: clear + re-encode yields the same image.
        buf.clear();
        row.encode_into(&mut buf);
        assert_eq!(buf, row.encode());
    }

    #[test]
    fn empty_text_round_trips() {
        let row = Row::new(vec![Value::Int(1), Value::Text(String::new())]);
        assert_eq!(Row::decode(&row.encode()), row);
    }

    #[test]
    fn key_is_column_zero() {
        assert_eq!(sample_row().key(), 42);
    }

    #[test]
    fn schema_validation() {
        let schema = Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
        ]);
        let good = Row::new(vec![Value::Int(1), Value::Text("NEW".into())]);
        assert!(schema.validate(&good).is_ok());

        let arity = Row::new(vec![Value::Int(1)]);
        assert!(matches!(
            schema.validate(&arity),
            Err(SchemaError::Arity {
                expected: 2,
                found: 1
            })
        ));

        let ty = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(
            schema.validate(&ty),
            Err(SchemaError::Type { column: 1, .. })
        ));
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let schema = Schema::new(vec![
            ColumnDef::new("O_ID", DataType::Int),
            ColumnDef::new("O_STATUS", DataType::Text),
        ]);
        assert_eq!(schema.column_index("o_status"), Some(1));
        assert_eq!(schema.column_index("O_ID"), Some(0));
        assert_eq!(schema.column_index("NOPE"), None);
    }

    #[test]
    #[should_panic(expected = "column 0 must be the Int primary key")]
    fn schema_requires_int_key() {
        let _ = Schema::new(vec![ColumnDef::new("NAME", DataType::Text)]);
    }

    #[test]
    #[should_panic(expected = "at most 255 columns")]
    fn schema_rejects_more_columns_than_the_image_can_count() {
        let _ = Schema::new(
            (0..256)
                .map(|i| ColumnDef::new(&format!("C{i}"), DataType::Int))
                .collect(),
        );
    }

    #[test]
    fn view_reads_single_columns_without_decoding_the_row() {
        let image = sample_row().encode();
        let view = RowRef::new(&image);
        assert_eq!(view.len(), 4);
        assert_eq!(view.int(0), 42);
        assert_eq!(view.text(1), "PAID");
        assert_eq!(view.timestamp(2), 1_700_000_000_000_000);
        assert_eq!(view.int(3), -5);
        assert_eq!(view.value(1), Value::Text("PAID".into()));
        assert_eq!(view.to_row(), sample_row());
    }

    #[test]
    fn rewrite_replaces_named_columns_and_copies_the_rest() {
        let image = sample_row().encode();
        let mut out = Vec::new();
        RowRef::new(&image)
            .rewrite(&mut out, |col| {
                Ok::<_, ()>(match col {
                    1 => Some(ValueRef::Text("REFUNDED")),
                    3 => Some(ValueRef::Int(7)),
                    _ => None,
                })
            })
            .unwrap();
        let mut want = sample_row();
        want.values[1] = Value::Text("REFUNDED".into());
        want.values[3] = Value::Int(7);
        assert_eq!(out, want.encode(), "byte-identical to decode-modify-encode");
        assert_eq!(RowRef::new(&out).get(1), ValueRef::Text("REFUNDED"));
        // An error from the callback stops the rewrite.
        let err = RowRef::new(&image).rewrite(&mut Vec::new(), |col| {
            if col == 2 {
                Err("boom")
            } else {
                Ok(None)
            }
        });
        assert_eq!(err, Err("boom"));
    }

    #[test]
    #[should_panic(expected = "column 1 is not an Int")]
    fn view_accessor_of_another_type_panics() {
        let image = sample_row().encode();
        RowRef::new(&image).int(1);
    }

    #[test]
    #[should_panic(expected = "column 4 of a 4-column row")]
    fn view_column_out_of_range_panics() {
        let image = sample_row().encode();
        RowRef::new(&image).value(4);
    }

    /// Release semantics of the lazy view, reached by building it without
    /// `new`'s debug walk: columns before the damage still read, the damaged
    /// one panics where its bytes are read.
    #[test]
    fn damaged_image_panics_at_the_accessor_that_reads_it() {
        let image = sample_row().encode();
        // Cut inside column 2: count byte, 9-byte Int, 7-byte Text, then 4
        // of the Timestamp's 9 bytes.
        let cut = RowRef {
            image: &image[..1 + 9 + 7 + 4],
        };
        assert_eq!(cut.int(0), 42);
        assert_eq!(cut.text(1), "PAID");
        assert!(std::panic::catch_unwind(|| cut.timestamp(2)).is_err());
        assert!(std::panic::catch_unwind(|| cut.to_row()).is_err());
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| RowRef::new(cut.image)).is_err());
        }

        let mut bad_tag = image.clone();
        bad_tag[1 + 9] = 9;
        let view = RowRef { image: &bad_tag };
        assert_eq!(view.int(0), 42);
        assert!(std::panic::catch_unwind(|| view.value(1)).is_err());

        let mut bad_utf8 = image.clone();
        bad_utf8[1 + 9 + 3] = 0xFF;
        let view = RowRef { image: &bad_utf8 };
        assert_eq!(view.timestamp(2), 1_700_000_000_000_000, "walked, not read");
        assert!(std::panic::catch_unwind(|| view.text(1)).is_err());
    }

    #[test]
    fn expect_helpers_panic_with_context() {
        let v = Value::Text("x".into());
        let r = std::panic::catch_unwind(|| v.expect_int());
        assert!(r.is_err());
    }

    /// One value of any type: an `Int` or `Timestamp` at either extreme or
    /// anywhere between, or a text of 0–300 bytes with multibyte chars.
    fn any_value() -> impl Strategy<Value = Value> {
        let word = || prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0), any::<i64>()];
        prop_oneof![
            word().prop_map(Value::Int),
            word().prop_map(Value::Timestamp),
            "[ -~é€😀]{0,300}".prop_map(|mut s: String| {
                while s.len() > 300 {
                    s.pop();
                }
                Value::Text(s)
            }),
        ]
    }

    /// Write `row` through a writer for a schema of its own types.
    fn write_row(row: &Row, image: &mut Vec<u8>) -> i64 {
        let schema = Schema::new(
            row.values
                .iter()
                .enumerate()
                .map(|(i, v)| ColumnDef::new(&format!("C{i}"), v.data_type()))
                .collect(),
        );
        let mut w = RowWriter::new(&schema, image);
        for v in &row.values {
            match v {
                Value::Int(x) => w.int(*x),
                Value::Text(s) => w.text(s),
                Value::Timestamp(x) => w.timestamp(*x),
            };
        }
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        /// The writer's image is `Row::encode`'s, byte for byte, for rows of
        /// 1 to 255 columns, and it hands back column 0 as the key; the
        /// stale bytes of the reused scratch image do not leak in.
        #[test]
        fn writer_image_equals_row_encode(
            key in prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>()],
            rest in prop::collection::vec(any_value(), 0..255),
        ) {
            let row = Row::new(std::iter::once(Value::Int(key)).chain(rest).collect());
            let mut image = vec![0xAB; 700];
            prop_assert_eq!(write_row(&row, &mut image), key);
            prop_assert_eq!(&image, &row.encode());
        }
    }

    /// The longest text the image can count, `u16::MAX` bytes, is written;
    /// one byte more is refused (`db::tests`).
    #[test]
    fn writer_takes_text_of_exactly_u16_max() {
        let row = Row::new(vec![
            Value::Int(1),
            Value::Text("é".repeat(u16::MAX as usize / 2) + "x"),
        ]);
        let mut image = Vec::new();
        write_row(&row, &mut image);
        assert_eq!(image, row.encode());
    }

    #[test]
    fn encoded_size_tracks_content() {
        let small = Row::new(vec![Value::Int(1)]).encode();
        let big = Row::new(vec![Value::Int(1), Value::Text("x".repeat(100))]).encode();
        assert!(big.len() > small.len() + 99);
    }
}
