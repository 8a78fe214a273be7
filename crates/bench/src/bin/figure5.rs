fn main() {
    scan_bench::experiments::main("figure5", &mut std::io::stdout());
}
