fn main() {
    scan_bench::experiments::main("windows", &mut std::io::stdout());
}
