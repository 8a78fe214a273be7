fn main() {
    scan_bench::experiments::main("multifault", &mut std::io::stdout());
}
