//! PPM export — the only file IO in the crate, so examples can write
//! inspectable images (Figure 1 reproductions) without an image library.

use crate::raster::Raster;
use std::io::Write;
use std::path::Path;

/// Writes a binary PPM (P6).
pub fn save_ppm(img: &Raster, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P6\n{} {}\n255", img.width(), img.height())?;
    f.write_all(img.bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Rgb;

    #[test]
    fn ppm_is_the_p6_header_then_the_raw_rgb_bytes() {
        let mut img = Raster::new(7, 5);
        img.set(3, 2, Rgb::new(10, 200, 30));
        let dir = std::env::temp_dir().join("sonic_image_tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("roundtrip.ppm");
        save_ppm(&img, &path).expect("write");
        let data = std::fs::read(&path).expect("read");
        let header = b"P6\n7 5\n255\n";
        assert_eq!(&data[..header.len()], header);
        assert_eq!(&data[header.len()..], img.bytes());
    }
}
