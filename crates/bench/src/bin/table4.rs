fn main() {
    scan_bench::experiments::main("table4", &mut std::io::stdout());
}
