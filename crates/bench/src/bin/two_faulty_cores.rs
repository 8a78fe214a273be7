fn main() {
    scan_bench::experiments::main("two_faulty_cores", &mut std::io::stdout());
}
