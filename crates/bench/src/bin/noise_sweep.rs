fn main() {
    scan_bench::experiments::main("noise_sweep", &mut std::io::stdout());
}
