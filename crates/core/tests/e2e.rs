//! End-to-end tests: XMTC source → compiler → linker → cycle-accurate
//! simulator, checking results through program output and final memory.
//! The fast functional mode is cross-checked against the cycle-accurate
//! mode throughout (the toolchain's own verification methodology).

use xmt_core::{Toolchain, ToolchainError};
use xmtc::Options;
use xmtsim::XmtConfig;

fn run_src(src: &str) -> xmt_core::RunResult {
    Toolchain::new()
        .compile(src)
        .expect("compiles")
        .run(&XmtConfig::tiny())
        .expect("runs")
}

#[test]
fn serial_arithmetic_and_loops() {
    let r = run_src(
        "void main() {
            int sum = 0;
            for (int i = 1; i <= 10; i++) { sum += i; }
            print(sum);
            int p = 1;
            int k = 0;
            while (k < 5) { p *= 2; k++; }
            print(p);
            do { p -= 10; } while (p > 10);
            print(p);
        }",
    );
    assert_eq!(r.printed_ints(), vec![55, 32, 2]);
}

#[test]
fn fig2a_array_compaction() {
    // The paper's Fig. 2a program, verbatim semantics.
    let src = "
        int A[8]; int B[8]; int base = 0; int N = 8;
        void main() {
            spawn(0, N - 1) {
                int inc = 1;
                if (A[$] != 0) {
                    ps(inc, base);
                    B[inc] = A[$];
                }
            }
        }
    ";
    let mut c = Toolchain::new().compile(src).unwrap();
    c.set_global_ints("A", &[5, 0, 12, 0, 0, 3, 0, 9]).unwrap();
    let r = c.run(&XmtConfig::fpga64()).unwrap();
    let mut b = r.read_global_ints("B", 8).unwrap();
    b.retain(|&x| x != 0);
    b.sort_unstable();
    assert_eq!(b, vec![3, 5, 9, 12], "non-zeros compacted (order not preserved)");
}

/// The program image is shared between a `Compiled` and the results of
/// its runs; a result must keep the image it ran with when the inputs
/// change afterwards (the copy-on-write case of `set_global`).
#[test]
fn set_global_leaves_earlier_results_alone() {
    let src = "
        int A[4]; int B[4];
        void main() { spawn(0, 3) { B[$] = A[$] + 1; } }
    ";
    let mut c = Toolchain::new().compile(src).unwrap();
    c.set_global_ints("A", &[1, 2, 3, 4]).unwrap();
    let first = c.run(&XmtConfig::tiny()).unwrap();
    let first_functional = c.run_functional().unwrap();
    c.set_global_ints("A", &[10, 20, 30, 40]).unwrap();
    let second = c.run(&XmtConfig::tiny()).unwrap();
    for r in [&first, &first_functional] {
        assert_eq!(r.read_global_ints("A", 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(r.read_global_ints("B", 4).unwrap(), vec![2, 3, 4, 5]);
    }
    assert_eq!(second.read_global_ints("A", 4).unwrap(), vec![10, 20, 30, 40]);
    assert_eq!(second.read_global_ints("B", 4).unwrap(), vec![11, 21, 31, 41]);
    assert_eq!(c.memmap().lookup("A").unwrap().words, vec![10, 20, 30, 40]);
}

#[test]
fn functions_recursion_and_stack_args() {
    let r = run_src(
        "int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
         }
         int six(int a, int b, int c, int d, int e, int f) {
            return a + 2*b + 3*c + 4*d + 5*e + 6*f;
         }
         void main() {
            print(fib(12));
            print(six(1, 2, 3, 4, 5, 6));
         }",
    );
    assert_eq!(r.printed_ints(), vec![144, 1 + 4 + 9 + 16 + 25 + 36]);
}

#[test]
fn floats_and_casts() {
    let r = run_src(
        "float acc = 0.0;
         void main() {
            float x = 2.5;
            float y = x * 4.0 - 1.0;     // 9.0
            acc = y / 2.0;               // 4.5
            int t = (int)(acc * 2.0);    // 9
            print(t);
            if (acc > 4.0 && acc <= 4.5) { print(1); } else { print(0); }
         }",
    );
    assert_eq!(r.printed_ints(), vec![9, 1]);
    assert_eq!(r.read_global_floats("acc", 1).unwrap(), vec![4.5]);
}

#[test]
fn pointers_and_alloc() {
    let r = run_src(
        "void fill(int* p, int n) {
            for (int i = 0; i < n; i++) { p[i] = i * i; }
         }
         void main() {
            int* buf = alloc(10 * 4);
            fill(buf, 10);
            int s = 0;
            for (int i = 0; i < 10; i++) { s += buf[i]; }
            print(s); // 0+1+4+...+81 = 285
            int x = 7;
            int* px = &x;
            *px = *px + 1;
            print(x);
         }",
    );
    assert_eq!(r.printed_ints(), vec![285, 8]);
}

#[test]
fn parallel_vector_add() {
    let src = "
        int A[64]; int B[64]; int C[64]; int N = 64;
        void main() {
            spawn(0, N - 1) { C[$] = A[$] + B[$]; }
        }
    ";
    let mut c = Toolchain::new().compile(src).unwrap();
    let a: Vec<i32> = (0..64).collect();
    let b: Vec<i32> = (0..64).map(|k| 1000 - k).collect();
    c.set_global_ints("A", &a).unwrap();
    c.set_global_ints("B", &b).unwrap();
    let r = c.run(&XmtConfig::fpga64()).unwrap();
    assert_eq!(r.read_global_ints("C", 64).unwrap(), vec![1000; 64]);
    assert_eq!(r.stats.spawns, 1);
    assert_eq!(r.stats.virtual_threads, 64);
}

#[test]
fn psm_parallel_counter_exact() {
    let src = "
        int counter = 0; int N = 200;
        void main() {
            spawn(0, N - 1) {
                int one = 1;
                psm(one, counter);
            }
            print(counter);
        }
    ";
    let r = run_src(src);
    assert_eq!(r.printed_ints(), vec![200]);
}

#[test]
fn functional_mode_matches_cycle_accurate() {
    let src = "
        int A[40]; int out = 0; int N = 40;
        void main() {
            spawn(0, N - 1) {
                int v = A[$] * 2 + 1;
                A[$] = v;
            }
            int s = 0;
            for (int i = 0; i < N; i++) { s += A[i]; }
            print(s);
        }
    ";
    let mut c = Toolchain::new().compile(src).unwrap();
    let input: Vec<i32> = (0..40).map(|k| k * 3 % 17).collect();
    c.set_global_ints("A", &input).unwrap();
    let cyc = c.run(&XmtConfig::tiny()).unwrap();
    let fun = c.run_functional().unwrap();
    assert_eq!(cyc.printed_ints(), fun.printed_ints());
    assert_eq!(
        cyc.read_global_ints("A", 40).unwrap(),
        fun.read_global_ints("A", 40).unwrap()
    );
    // Functional mode runs no cycle-accurate events.
    assert_eq!(fun.events, 0);
    assert!(cyc.events > 0);
}

#[test]
fn fig8_outlining_protects_against_illegal_dataflow() {
    // Paper Fig. 8: `found` is written inside the spawn block. With
    // outlining (default) it is passed by reference and lives in shared
    // memory; without outlining it is register-promoted on the master and
    // the TCU writes are lost — exactly the illegal dataflow GCC would
    // commit.
    let src = "
        int A[32]; int counter = 0;
        void main() {
            int found = 0;
            spawn(0, 31) {
                if (A[$] != 0) { found = 1; }
            }
            if (found) { counter += 1; }
            print(counter);
        }
    ";
    let with_outline = {
        let mut c = Toolchain::new().compile(src).unwrap();
        c.set_global_ints("A", &{
            let mut v = vec![0; 32];
            v[17] = 1;
            v
        })
        .unwrap();
        c.run(&XmtConfig::tiny()).unwrap().printed_ints()
    };
    assert_eq!(with_outline, vec![1], "outlined: found is observed");

    let mut opts = Options::default();
    opts.outline = false;
    let without_outline = {
        let mut c = Toolchain::with_options(opts).compile(src).unwrap();
        c.set_global_ints("A", &{
            let mut v = vec![0; 32];
            v[17] = 1;
            v
        })
        .unwrap();
        c.run(&XmtConfig::tiny()).unwrap().printed_ints()
    };
    assert_eq!(
        without_outline,
        vec![0],
        "un-outlined: the TCU's write to the register-promoted `found` is lost"
    );
}

#[test]
fn spawn_reading_a_float_local_matches_the_unoutlined_build() {
    // Outlining passes a read-only float capture by reference (there is no
    // float parameter); functional and fpga64 runs of the outlined build
    // agree with the build that keeps the spawn inline.
    let src = "float F[4]; int main() { float x = F[1]; spawn(0, 3) { F[$] = x; } return 0; }";
    let inline = Options { outline: false, ..Options::default() };
    let runs = [Toolchain::new(), Toolchain::with_options(inline)].map(|tc| {
        let mut c = tc.compile(src).expect("compiles");
        c.set_global_floats("F", &[0.0, 2.5, 0.0, 0.0]).unwrap();
        let functional = c.run_functional().unwrap().read_global_floats("F", 4).unwrap();
        let fpga64 = c.run(&XmtConfig::fpga64()).unwrap().read_global_floats("F", 4).unwrap();
        (functional, fpga64)
    });
    assert_eq!(runs[0], (vec![2.5; 4], vec![2.5; 4]));
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn nested_spawn_serialized() {
    let src = "
        int M[24]; // 4 x 6
        void main() {
            spawn(0, 3) {
                spawn(0, 5) {
                    M[6 * 0 + $] = $;
                }
            }
        }
    ";
    // The inner spawn writes M[0..6] from every outer thread.
    let c = Toolchain::new().compile(src).unwrap();
    assert!(!c.warnings.is_empty(), "serialization warning expected");
    let r = c.run(&XmtConfig::tiny()).unwrap();
    assert_eq!(&r.read_global_ints("M", 6).unwrap()[..], &[0, 1, 2, 3, 4, 5]);
}

#[test]
fn clustering_preserves_semantics() {
    let src = "
        int A[100]; int N = 100;
        void main() {
            spawn(0, N - 1) { A[$] = $ * 2; }
        }
    ";
    let want: Vec<i32> = (0..100).map(|k| k * 2).collect();
    for factor in [None, Some(2), Some(4), Some(16), Some(64)] {
        let mut opts = Options::default();
        opts.clustering = factor;
        let c = Toolchain::with_options(opts).compile(src).unwrap();
        let r = c.run(&XmtConfig::tiny()).unwrap();
        assert_eq!(
            r.read_global_ints("A", 100).unwrap(),
            want,
            "clustering factor {factor:?}"
        );
    }
}

#[test]
fn register_spill_error_in_parallel_code() {
    // A virtual thread with far more simultaneously-live values than the
    // TCU has registers: the paper's §IV-D register-spill error.
    let mut body_decls = String::new();
    let mut body_uses = String::new();
    for k in 0..30 {
        body_decls.push_str(&format!("int v{k} = A[$ + {k}];\n"));
        body_uses.push_str(&format!(" + v{k}"));
    }
    let src = format!(
        "int A[64]; int B[64];
         void main() {{ spawn(0, 7) {{ {body_decls} B[$] = 0 {body_uses}; }} }}"
    );
    let err = Toolchain::new().compile(&src).unwrap_err();
    match err {
        ToolchainError::Compile(xmtc::CompileError::RegisterSpill { .. }) => {}
        other => panic!("expected register-spill error, got: {other}"),
    }
    // The same pressure in serial code compiles fine (master has a stack).
    let serial = format!(
        "int A[64]; int B[64];
         void main() {{ int i = 3; {} B[i] = 0 {body_uses}; }}",
        body_decls.replace('$', "i")
    );
    Toolchain::new().compile(&serial).unwrap();
}

#[test]
fn volatile_global_reread() {
    // Without volatile, CSE could reuse the first load; with volatile the
    // second read must see the TCU's store. (Single-thread version keeps
    // it deterministic: thread 0 writes, then reads its own update
    // through a fence.)
    let src = "
        volatile int flag = 0;
        void main() {
            spawn(0, 0) {
                int one = 1;
                psm(one, flag);
                int seen = flag;
                print(seen);
            }
        }
    ";
    let r = run_src(src);
    assert_eq!(r.printed_ints(), vec![1]);
}

#[test]
fn prefetching_reduces_cycles_on_memory_kernel() {
    let src = "
        int A[256]; int B[256]; int C[256]; int D[256]; int O[256]; int N = 256;
        void main() {
            spawn(0, N - 1) {
                O[$] = A[$] + B[$] + C[$] + D[$];
            }
        }
    ";
    let run_with = |prefetch: bool| {
        let mut opts = Options::default();
        opts.prefetch = prefetch;
        let mut c = Toolchain::with_options(opts).compile(src).unwrap();
        let vals: Vec<i32> = (0..256).collect();
        for g in ["A", "B", "C", "D"] {
            c.set_global_ints(g, &vals).unwrap();
        }
        let r = c.run(&XmtConfig::fpga64()).unwrap();
        assert_eq!(r.read_global_ints("O", 4).unwrap(), vec![0, 4, 8, 12]);
        (r.cycles, r.stats.prefetch_hits)
    };
    let (without, hits0) = run_with(false);
    let (with, hits1) = run_with(true);
    assert_eq!(hits0, 0);
    assert!(hits1 > 0, "prefetch buffers used");
    assert!(
        with < without,
        "prefetching should cut cycles: {with} vs {without}"
    );
}

#[test]
fn spawn_bounds_from_expressions_and_empty_range() {
    let r = run_src(
        "int A[8]; int n = 0;
         void main() {
            spawn(2, 2 + 3) { A[$] = 1; }   // threads 2..=5
            spawn(5, 4) { A[7] = 99; }      // empty: body never runs
            int s = 0;
            for (int i = 0; i < 8; i++) { s += A[i]; }
            print(s);
         }",
    );
    assert_eq!(r.printed_ints(), vec![4]);
}

#[test]
fn ternary_and_logical_operators() {
    let r = run_src(
        "void main() {
            int a = 7;
            int b = a > 5 ? a * 2 : a - 1;
            print(b);
            int c = (a == 7 || 1 / 0) ? 1 : 0; // short-circuit: no div
            print(c);
            int d = (a < 5 && a > 100) ? 1 : 0;
            print(d);
            print(!a);
            print(~a);
            print(a % 4);
            print(a << 2);
            print(-a >> 1);
         }",
    );
    assert_eq!(r.printed_ints(), vec![14, 1, 0, 0, -8, 3, 28, -4]);
}

#[test]
fn layout_fixes_happen_and_program_still_correct() {
    // A spawn body with a conditional rare path whose block the code
    // generator sinks past the join (Fig. 9a); the post-pass must pull it
    // back and the program must still compute correctly.
    let src = "
        int A[64]; int hits = 0; int N = 64;
        void main() {
            spawn(0, N - 1) {
                if (A[$] == 77) {
                    int one = 1;
                    psm(one, hits);
                }
            }
            print(hits);
        }
    ";
    let mut c = Toolchain::new().compile(src).unwrap();
    let mut a = vec![0i32; 64];
    a[3] = 77;
    a[40] = 77;
    a[63] = 77;
    c.set_global_ints("A", &a).unwrap();
    let r = c.run(&XmtConfig::fpga64()).unwrap();
    assert_eq!(r.printed_ints(), vec![3]);
}

#[test]
fn master_can_use_ps_and_grput() {
    let r = run_src(
        "int base = 10;
         void main() {
            int v = 1;
            ps(v, base);       // v = 10, base = 11
            print(v);
            print(base);       // read through the ps unit
            base = 42;         // serial write -> grput
            print(base);
         }",
    );
    assert_eq!(r.printed_ints(), vec![10, 11, 42]);
}

#[test]
fn print_in_parallel_code() {
    let src = "
        void main() {
            spawn(0, 7) { print($); }
        }
    ";
    let r = run_src(src);
    let mut got = r.printed_ints();
    got.sort_unstable();
    assert_eq!(got, (0..8).collect::<Vec<_>>());
}

#[test]
fn o0_compiles_and_matches_o2() {
    let src = "
        int A[32]; int N = 32; int base = 0;
        void main() {
            spawn(0, N - 1) {
                int inc = 1;
                if (A[$] % 3 == 0) { ps(inc, base); }
            }
            print(base);
        }
    ";
    let mut inputs = vec![0i32; 32];
    for (k, v) in inputs.iter_mut().enumerate() {
        *v = k as i32;
    }
    let run_opt = |opts: Options| {
        let mut c = Toolchain::with_options(opts).compile(src).unwrap();
        c.set_global_ints("A", &inputs).unwrap();
        c.run(&XmtConfig::tiny()).unwrap().printed_ints()
    };
    let o2 = run_opt(Options::default());
    let o0 = run_opt(Options::o0());
    assert_eq!(o2, o0);
    assert_eq!(o2, vec![11]); // multiples of 3 in 0..32: 0,3,...,30
}

#[test]
fn deterministic_cycle_counts() {
    let src = "
        int A[128]; int N = 128;
        void main() { spawn(0, N-1) { A[$] = $ * 3; } }
    ";
    let c = Toolchain::new().compile(src).unwrap();
    let r1 = c.run(&XmtConfig::fpga64()).unwrap();
    let r2 = c.run(&XmtConfig::fpga64()).unwrap();
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.instructions, r2.instructions);
}

#[test]
fn parallel_function_calls_inline() {
    // §IV-E without the cactus stack: calls in spawn blocks are inlined.
    let r = run_src(
        "int sq(int x) { return x * x; }
         int clampdiff(int a, int b) { return a > b ? a - b : b - a; }
         int A[16]; int total = 0;
         void bump(int i) {
             int v = sq(i) + clampdiff(i, 8);
             int t = v;        // psm writes the fetched old value back!
             psm(t, total);
             A[i] = v;
         }
         void main() {
             spawn(0, 15) { bump($); }
             print(total);
             print(A[3]);
             print(A[12]);
         }",
    );
    let expect: Vec<i32> = (0..16).map(|i: i32| i * i + (i - 8).abs()).collect();
    let total: i32 = expect.iter().sum();
    assert_eq!(r.printed_ints(), vec![total, expect[3], expect[12]]);
}

#[test]
fn parallel_float_helper_inlines() {
    let r = run_src(
        "float lerp(float a, float b, float t) { return a + (b - a) * t; }
         float OUT[8];
         void main() {
             spawn(0, 7) {
                 OUT[$] = lerp(0.0, 10.0, (float)$ / 8.0);
             }
             print((int)(OUT[4] * 100.0));
         }",
    );
    assert_eq!(r.printed_ints(), vec![500]); // lerp(0,10,0.5) = 5.00
}

#[test]
fn recursion_in_parallel_rejected_with_guidance() {
    let err = Toolchain::new()
        .compile(
            "int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
             int A[4];
             void main() { spawn(0, 3) { A[$] = fib($); } }",
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cactus") || msg.contains("inlined") || msg.contains("ternary"), "{msg}");
    // The same function is fine in serial code.
    let r = run_src(
        "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
         void main() { print(fib(10)); }",
    );
    assert_eq!(r.printed_ints(), vec![55]);
}

#[test]
fn inline_rejects_shadowed_global_capture() {
    // Hygiene: `f` reads global `g`; the spawn body declares a local `g`.
    // Naive substitution would silently bind the inlined `g` to the local
    // (capture), so the compiler must reject this instead.
    let err = Toolchain::new()
        .compile(
            "int g = 10; int A[4];
             int f(int x) { return x + g; }
             void main() { spawn(0, 3) { int g = 1; A[$] = f($) + g; } print(A[0]); }",
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("shadows") && msg.contains('g'), "{msg}");
    // With the local renamed, inlining resolves `g` to the global.
    let r = run_src(
        "int g = 10; int A[4];
         int f(int x) { return x + g; }
         void main() { spawn(0, 3) { int h = 1; A[$] = f($) + h; } print(A[0]); print(A[3]); }",
    );
    assert_eq!(r.printed_ints(), vec![11, 14]);
}

#[test]
fn inline_hygiene_scope_edges() {
    // A shadowing local declared *after* the call does not capture: C
    // scoping makes the earlier reference resolve to the global.
    let r = run_src(
        "int g = 10; int A[4];
         int f(int x) { return x + g; }
         void main() { spawn(0, 3) { A[$] = f($); int g = 1; A[$] = A[$] + g; } print(A[0]); }",
    );
    assert_eq!(r.printed_ints(), vec![11]); // 0 + 10 + 1
    // A void-procedure body reading a shadowed global is rejected too.
    let err = Toolchain::new()
        .compile(
            "int g = 10; int A[4];
             void put(int i) { A[i] = g; }
             void main() { spawn(0, 3) { int g = 1; put($); A[$] = A[$] + g; } }",
        )
        .unwrap_err();
    assert!(err.to_string().contains("shadows"), "{err}");
    // A for-loop induction variable shadowing the global is also caught.
    let err = Toolchain::new()
        .compile(
            "int g = 10; int A[4];
             int f(int x) { return x + g; }
             void main() { spawn(0, 3) { int s = 0; int g; for (g = 0; g < 2; g = g + 1) { s = s + f($); } A[$] = s; } }",
        )
        .unwrap_err();
    assert!(err.to_string().contains("shadows"), "{err}");
}
