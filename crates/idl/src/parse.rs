//! Parser for the ROS `.msg` interface-definition language.
//!
//! The grammar is line-oriented:
//!
//! ```text
//! # comment            above the first declaration: the message's documentation
//! type name            # field, optional trailing comment
//! type[] name          # dynamic array
//! type[N] name         # fixed array
//! TYPE NAME=VALUE      # constant
//! ```

use crate::model::{Arity, Constant, Field, FieldType, MessageSpec};
use core::fmt;

/// Error produced while parsing `.msg` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_type_token(s: &str) -> bool {
    match s.split_once('/') {
        Some((pkg, name)) => valid_ident(pkg) && valid_ident(name),
        None => valid_ident(s),
    }
}

/// Parse one `.msg` definition.
///
/// # Errors
///
/// [`ParseError`] with the offending line on malformed input.
pub fn parse_msg(package: &str, name: &str, text: &str) -> Result<MessageSpec, ParseError> {
    let mut doc = Vec::new();
    let mut fields: Vec<Field> = Vec::new();
    let mut constants = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Split a trailing comment; '#' inside a constant's string value is
        // out of scope (ROS itself is ambiguous there).
        let (content, comment) = match raw_line.split_once('#') {
            Some((c, com)) => (c, Some(com.trim())),
            None => (raw_line, None),
        };
        let content = content.trim();
        if content.is_empty() {
            // Comment lines above the first declaration document the message.
            if fields.is_empty() && constants.is_empty() {
                doc.extend(comment);
            }
            continue;
        }

        let (type_tok, rest) = content
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(lineno, format!("expected `type name`, got `{content}`")))?;
        let rest = rest.trim();

        // Constant: `TYPE NAME=VALUE` (with optional spaces around '=').
        if let Some((cname, value)) = rest.split_once('=') {
            let cname = cname.trim();
            let value = value.trim();
            if !valid_ident(cname) {
                return Err(err(lineno, format!("invalid constant name `{cname}`")));
            }
            let ty = FieldType::from_token(type_tok);
            if matches!(ty, FieldType::Named(_)) {
                return Err(err(lineno, "constants must have primitive types"));
            }
            constants.push(Constant {
                name: cname.to_string(),
                ty,
                value: value.to_string(),
            });
            continue;
        }

        // Field: `type[arity] name`.
        let (base_tok, arity) = if let Some(open) = type_tok.find('[') {
            let close = type_tok
                .rfind(']')
                .ok_or_else(|| err(lineno, "unterminated `[`"))?;
            if close != type_tok.len() - 1 || close < open {
                return Err(err(
                    lineno,
                    format!("malformed array suffix in `{type_tok}`"),
                ));
            }
            let inner = &type_tok[open + 1..close];
            let arity = if inner.is_empty() {
                Arity::DynamicArray
            } else {
                let n: usize = inner
                    .parse()
                    .map_err(|_| err(lineno, format!("bad array length `{inner}`")))?;
                if n == 0 {
                    return Err(err(lineno, "fixed arrays must be non-empty"));
                }
                Arity::FixedArray(n)
            };
            (&type_tok[..open], arity)
        } else {
            (type_tok, Arity::Scalar)
        };

        if !valid_type_token(base_tok) {
            return Err(err(lineno, format!("invalid type `{base_tok}`")));
        }
        let fname = rest;
        if !valid_ident(fname) {
            return Err(err(lineno, format!("invalid field name `{fname}`")));
        }
        if fields.iter().any(|f| f.name == fname) {
            return Err(err(lineno, format!("duplicate field `{fname}`")));
        }
        fields.push(Field {
            name: fname.to_string(),
            ty: FieldType::from_token(base_tok),
            arity,
            comment: comment.filter(|c| !c.is_empty()).map(str::to_string),
        });
    }

    Ok(MessageSpec {
        package: package.to_string(),
        name: name.to_string(),
        rust_name: name.to_string(),
        doc: Some(doc.join("\n").trim().to_string()).filter(|d| !d.is_empty()),
        fields,
        constants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMAGE_MSG: &str = "
# This message contains an uncompressed image
Header header        # Header timestamp should be acquisition time of image
uint32 height        # image height, that is, number of rows
uint32 width         # image width, that is, number of columns
string encoding      # Encoding of pixels
uint8 is_bigendian   # is this data bigendian?
uint32 step          # Full row length in bytes
uint8[] data         # actual matrix data, size is (step * rows)
";

    #[test]
    fn parses_the_real_image_definition() {
        let spec = parse_msg("sensor_msgs", "Image", IMAGE_MSG).unwrap();
        assert_eq!(spec.full_name(), "sensor_msgs/Image");
        assert_eq!(spec.fields.len(), 7);
        assert_eq!(spec.fields[0].ty, FieldType::Named("Header".into()));
        assert_eq!(spec.fields[3].name, "encoding");
        assert_eq!(spec.fields[3].ty, FieldType::RosString);
        assert_eq!(spec.fields[6].arity, Arity::DynamicArray);
        assert_eq!(spec.fields[6].ty, FieldType::UInt8);
        assert!(spec.fields[0]
            .comment
            .as_deref()
            .unwrap()
            .contains("acquisition time"));
        assert_eq!(
            spec.doc.as_deref(),
            Some("This message contains an uncompressed image")
        );
    }

    #[test]
    fn parses_fixed_arrays_and_qualified_types() {
        let spec = parse_msg(
            "sensor_msgs",
            "CameraInfo",
            "float64[9] K\ngeometry_msgs/Point32[] pts\n",
        )
        .unwrap();
        assert_eq!(spec.fields[0].arity, Arity::FixedArray(9));
        assert_eq!(
            spec.fields[1].ty,
            FieldType::Named("geometry_msgs/Point32".into())
        );
    }

    #[test]
    fn parses_constants() {
        let spec = parse_msg(
            "sensor_msgs",
            "PointField",
            "uint8 INT8=1\nuint8 FLOAT32 = 7\nstring name\n",
        )
        .unwrap();
        assert_eq!(spec.constants.len(), 2);
        assert_eq!(spec.constants[0].name, "INT8");
        assert_eq!(spec.constants[1].value, "7");
        assert_eq!(spec.fields.len(), 1);
    }

    #[test]
    fn comment_only_and_blank_lines_skipped() {
        let spec = parse_msg("p", "M", "\n  # nothing here\n\n").unwrap();
        assert!(spec.fields.is_empty());
        assert!(spec.constants.is_empty());
        assert_eq!(spec.doc.as_deref(), Some("nothing here"));
    }

    #[test]
    fn leading_comment_block_keeps_paragraphs_and_stops_at_the_first_declaration() {
        let spec = parse_msg(
            "p",
            "M",
            "# Summary.\n#\n# Detail.\n\nuint8 A=1\n# not doc\nuint32 x\n",
        )
        .unwrap();
        assert_eq!(spec.doc.as_deref(), Some("Summary.\n\nDetail."));
        assert_eq!(parse_msg("p", "M", "uint32 x\n").unwrap().doc, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, needle) in [
            ("justoneword", "expected"),
            ("uint32[ x", "unterminated"),
            ("uint32[-1] x", "bad array length"),
            ("uint32[0] x", "non-empty"),
            ("uint32 9bad", "invalid field name"),
            ("bad-type x", "invalid type"),
            ("uint32 x\nuint32 x", "duplicate"),
            ("Header C=1", "primitive"),
        ] {
            let e = parse_msg("p", "M", text).unwrap_err();
            assert!(e.message.contains(needle), "for {text:?}: got {e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn line_numbers_are_accurate() {
        let e = parse_msg("p", "M", "uint32 ok\n\nbroken").unwrap_err();
        assert_eq!(e.line, 3);
    }
}
