//! Tripwire for the cost of runtime layouts at structure scale.
//!
//! Ascribing a structure of n values, opening it, and referencing each
//! member qualified from another unit asks for every member's slot.  With
//! the layout rebuilt per lookup that is O(n³) — about 10¹⁰ scan steps at
//! n = 3,000, minutes even in release.  With the memoized layout index it
//! is O(n log n), well under a second in the debug profile.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smlsc_dynamics::eval::execute;
use smlsc_dynamics::value::Value;
use smlsc_ids::Symbol;
use smlsc_statics::elab::{elaborate_unit, ImportEnv, ImportedUnit};
use smlsc_statics::env::{str_slot, val_slot};

const N: usize = 3_000;

fn big_unit() -> String {
    let mut src = String::from("signature BIG_SIG = sig\n");
    for i in 0..N {
        src.push_str(&format!("  val f{i} : int -> int\n"));
    }
    src.push_str("end\nstructure Big : BIG_SIG = struct\n");
    // Reverse definition order, so ascription has to reorder every slot.
    for i in (0..N).rev() {
        src.push_str(&format!("  fun f{i} x = x + {i}\n"));
    }
    src.push_str("end\n");
    src
}

fn user_unit() -> String {
    let mut src = String::from("structure User = struct\n  open Big\n");
    for i in 0..N {
        src.push_str(&format!("  val r{i} = Big.f{i} 1\n"));
    }
    src.push_str(&format!("  val last = f{} 0\nend\n", N - 1));
    src
}

#[test]
fn a_3000_value_structure_elaborates_in_linear_time() {
    let big_src = big_unit();
    let user_src = user_unit();
    let start = Instant::now();
    let big = elaborate_unit(
        &smlsc_syntax::parse_unit(&big_src).unwrap(),
        &ImportEnv::empty(),
    )
    .unwrap();
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("big"),
            exports: Arc::clone(&big.exports),
        }],
        shadowing: false,
    };
    let user = elaborate_unit(&smlsc_syntax::parse_unit(&user_src).unwrap(), &imports).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "parse + elaborate of two {N}-member units took {elapsed:?}"
    );

    // The layouts are right, not just fast: run both units and read back
    // a member through the exported slots.
    let big_val = execute(&big.code, &[]).unwrap();
    let user_val = execute(&user.code, &[big_val]).unwrap();
    let Value::Record(units) = &user_val else {
        panic!("export not a record")
    };
    let s = Symbol::intern("User");
    let Value::Record(fields) = &units[str_slot(&user.exports, s).unwrap() as usize] else {
        panic!("structure not a record")
    };
    let b = &user.exports.str(s).unwrap().bindings;
    let get = |name: &str| fields[val_slot(b, Symbol::intern(name)).unwrap() as usize].clone();
    assert_eq!(get("r1234"), Value::Int(1235));
    assert_eq!(get("last"), Value::Int((N - 1) as i64));
}
