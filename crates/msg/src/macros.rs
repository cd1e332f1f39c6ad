//! The compile-time half of the SFM Generator (§4.3.1).
//!
//! The paper's SFM Generator extends ROS `genmsg`: from one IDL definition
//! it emits the ordinary message class *and* the SFM message class, plus
//! overloaded (de)serialization routines. Here [`ros_message_impls!`] plays
//! that role: given the two struct declarations and the field manifest that
//! `rossf-idl` emits from a `.msg` file, it generates
//!
//! * the ROS1 serializer/de-serializer for the plain struct
//!   ([`RosField`](rossf_ros::ser::RosField) /
//!   [`RosMessage`](rossf_ros::ser::RosMessage)),
//! * transport integration ([`TopicType`](rossf_ros::TopicType) +
//!   [`Encode`](rossf_ros::Encode)) for the plain struct,
//! * the SFM trait stack ([`SfmPod`](rossf_sfm::SfmPod),
//!   [`SfmValidate`](rossf_sfm::SfmValidate),
//!   [`SfmMessage`](rossf_sfm::SfmMessage)) for the skeleton struct,
//! * lossless conversions between the two representations
//!   (`fill_from_plain` / `to_plain`).
//!
//! Field kinds in the manifest:
//!
//! | kind      | IDL                  | plain field      | SFM field          |
//! |-----------|----------------------|------------------|--------------------|
//! | `prim`    | `uint32 x`           | `u32`            | `u32`              |
//! | `time`    | `time stamp`         | `RosTime`        | `RosTime`          |
//! | `string`  | `string s`           | `String`         | `SfmString`        |
//! | `bytes`   | `uint8[] data`       | `Vec<u8>`        | `SfmVec<u8>`       |
//! | `vec`     | `float32[] v`        | `Vec<T>`         | `SfmVec<T>`        |
//! | `vecmsg`  | `Point32[] points`   | `Vec<M>`         | `SfmVec<SfmM>`     |
//! | `vecstr`  | `string[] names`     | `Vec<String>`    | `SfmVec<SfmString>`|
//! | `nested`  | `Header header`      | `M`              | `SfmM`             |
//! | `arr`     | `float64[9] k`       | `[T; N]`         | `[T; N]`           |

/// Per-field serialized length (helper for [`ros_message_impls!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __ros_field_len {
    (@bytes $e:expr) => {
        4 + $e.len()
    };
    (@$kind:ident $e:expr) => {
        ::rossf_ros::ser::RosField::field_len(&$e)
    };
}

/// Per-field serializer (helper for [`ros_message_impls!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __ros_write_field {
    (@bytes $e:expr, $out:expr) => {
        ::rossf_ros::ser::write_bytes_field(&$e, $out)
    };
    (@$kind:ident $e:expr, $out:expr) => {
        ::rossf_ros::ser::RosField::write_field(&$e, $out)
    };
}

/// Per-field de-serializer (helper for [`ros_message_impls!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __ros_read_field {
    (@bytes $r:expr) => {
        ::rossf_ros::ser::read_bytes_field($r)?
    };
    (@$kind:ident $r:expr) => {
        ::rossf_ros::ser::RosField::read_field($r)?
    };
}

/// Per-field plain→SFM conversion (helper for [`ros_message_impls!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __sfm_fill_field {
    (@prim $dst:expr, $src:expr) => {
        $dst = $src;
    };
    (@time $dst:expr, $src:expr) => {
        $dst = $src;
    };
    (@arr $dst:expr, $src:expr) => {
        $dst = $src;
    };
    (@string $dst:expr, $src:expr) => {
        $dst.assign(&$src);
    };
    (@bytes $dst:expr, $src:expr) => {
        $dst.assign(&$src);
    };
    (@vec $dst:expr, $src:expr) => {
        $dst.assign(&$src);
    };
    (@vecmsg $dst:expr, $src:expr) => {
        $dst.resize($src.len());
        for __i in 0..$src.len() {
            $dst[__i].fill_from_plain(&$src[__i]);
        }
    };
    (@vecstr $dst:expr, $src:expr) => {
        $dst.resize($src.len());
        for __i in 0..$src.len() {
            $dst[__i].assign(&$src[__i]);
        }
    };
    (@nested $dst:expr, $src:expr) => {
        $dst.fill_from_plain(&$src);
    };
}

/// Per-field SFM→plain conversion (helper for [`ros_message_impls!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __sfm_to_plain_field {
    (@prim $e:expr) => {
        $e
    };
    (@time $e:expr) => {
        $e
    };
    (@arr $e:expr) => {
        $e
    };
    (@string $e:expr) => {
        $e.as_str().to_string()
    };
    (@bytes $e:expr) => {
        $e.as_slice().to_vec()
    };
    (@vec $e:expr) => {
        $e.as_slice().to_vec()
    };
    (@vecmsg $e:expr) => {
        $e.iter().map(|__e| __e.to_plain()).collect()
    };
    (@vecstr $e:expr) => {
        $e.iter().map(|__e| __e.as_str().to_string()).collect()
    };
    (@nested $e:expr) => {
        $e.to_plain()
    };
}

/// Generate the full trait stack for a (plain, SFM) message pair.
///
/// See this module's documentation for the field-kind table. The two
/// struct declarations are emitted next to the invocation by `rossf-idl`
/// (so that rustdoc shows real fields); this macro supplies every impl.
///
/// ```ignore
/// ros_message_impls! {
///     Image / SfmImage : "sensor_msgs/Image", max_size = 8 << 20,
///     fields = {
///         nested header,
///         prim height,
///         prim width,
///         string encoding,
///         prim is_bigendian,
///         prim step,
///         bytes data,
///     }
/// }
/// ```
#[macro_export]
macro_rules! ros_message_impls {
    (
        $plain:ident / $sfm:ident : $type_name:literal, max_size = $max:expr,
        fields = { $( $kind:ident $field:ident ),* $(,)? }
    ) => {
        impl ::rossf_ros::ser::RosField for $plain {
            fn field_len(&self) -> usize {
                0 $( + $crate::__ros_field_len!(@$kind self.$field) )*
            }

            fn write_field(&self, out: &mut Vec<u8>) {
                $( $crate::__ros_write_field!(@$kind self.$field, out); )*
            }

            fn read_field(
                r: &mut ::rossf_ros::ser::ByteReader<'_>,
            ) -> Result<Self, ::rossf_ros::ser::DecodeError> {
                Ok($plain {
                    $( $field: $crate::__ros_read_field!(@$kind r), )*
                })
            }
        }

        impl ::rossf_ros::ser::RosMessage for $plain {
            fn ros_type_name() -> &'static str {
                $type_name
            }
        }

        impl ::rossf_ros::TopicType for $plain {
            fn topic_type() -> &'static str {
                $type_name
            }
        }

        impl ::rossf_ros::Encode for $plain {
            /// The baseline publish path: serialize into a fresh buffer.
            fn encode(&self) -> ::rossf_ros::OutFrame {
                ::rossf_ros::OutFrame::owned(::std::sync::Arc::new(
                    ::rossf_ros::ser::RosMessage::to_bytes(self),
                ))
            }
        }

        // SAFETY: every field is itself `SfmPod` (statically checked below),
        // the struct is `#[repr(C)]`, and the all-zero pattern is each
        // field's valid empty state.
        unsafe impl ::rossf_sfm::SfmPod for $sfm {}

        const _: () = {
            // Static proof that each SFM field type is pod + validatable.
            #[allow(dead_code)]
            fn __assert_fields(v: &$sfm) {
                fn pod<T: ::rossf_sfm::SfmPod + ::rossf_sfm::SfmValidate>(_: &T) {}
                $( pod(&v.$field); )*
            }
        };

        impl ::rossf_sfm::SfmValidate for $sfm {
            fn validate_in(
                &self,
                base: usize,
                whole_len: usize,
            ) -> Result<(), ::rossf_sfm::SfmError> {
                $( self.$field.validate_in(base, whole_len)?; )*
                Ok(())
            }
        }

        // SAFETY: `max_size` is a constant expression ≥ the skeleton size
        // (checked at `SfmBox::new`), stable for the program's lifetime.
        unsafe impl ::rossf_sfm::SfmMessage for $sfm {
            fn type_name() -> &'static str {
                $type_name
            }
            fn max_size() -> usize {
                $max
            }
            fn schema() -> Option<&'static ::rossf_sfm::MessageSchema> {
                static SCHEMA: ::std::sync::OnceLock<::rossf_sfm::MessageSchema> =
                    ::std::sync::OnceLock::new();
                Some(SCHEMA.get_or_init(::rossf_sfm::MessageSchema::of::<$sfm>))
            }
        }

        impl ::rossf_sfm::SfmReflect for $sfm {
            fn type_desc() -> ::rossf_sfm::TypeDesc {
                // Closure-to-fn-pointer coercion infers each field's type
                // so the manifest does not have to repeat it.
                fn __desc<M, T: ::rossf_sfm::SfmReflect>(
                    _p: fn(&M) -> &T,
                ) -> ::rossf_sfm::TypeDesc {
                    T::type_desc()
                }
                ::rossf_sfm::TypeDesc::Struct(::rossf_sfm::StructDesc::new(
                    $type_name,
                    ::core::mem::size_of::<$sfm>(),
                    ::core::mem::align_of::<$sfm>(),
                    vec![
                        $(
                            ::rossf_sfm::FieldDesc {
                                name: stringify!($field).to_string(),
                                offset: ::core::mem::offset_of!($sfm, $field),
                                ty: __desc(|m: &$sfm| &m.$field),
                            },
                        )*
                    ],
                ))
            }
        }

        impl $sfm {
            /// Copy every field of a plain message into this skeleton
            /// (variable-size content is appended through the message
            /// manager).
            pub fn fill_from_plain(&mut self, plain: &$plain) {
                $( $crate::__sfm_fill_field!(@$kind self.$field, plain.$field); )*
            }

            /// Materialize an owned plain message with the same content.
            pub fn to_plain(&self) -> $plain {
                $plain {
                    $( $field: $crate::__sfm_to_plain_field!(@$kind self.$field), )*
                }
            }

            /// Allocate a managed serialization-free message initialized
            /// from `plain`.
            pub fn boxed_from_plain(plain: &$plain) -> ::rossf_sfm::SfmBox<$sfm> {
                let mut boxed = ::rossf_sfm::SfmBox::<$sfm>::new();
                boxed.fill_from_plain(plain);
                boxed
            }
        }
    };
}
