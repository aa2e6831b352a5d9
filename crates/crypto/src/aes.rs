//! AES-128 block cipher and CTR-mode symmetric encryption.
//!
//! §3 of the paper: "We use symmetric-key encryption as the encryption method since it can
//! handle large document sizes efficiently." Each document is encrypted under its own
//! symmetric key; that key is what the RSA blind-decryption protocol of §4.4 later releases to
//! the user. [`AesCtr`] is the document cipher used by the protocol crate.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_SIZE: usize = 16;
/// CTR nonce size in bytes (the remaining 8 bytes of the counter block are the block counter).
pub const NONCE_SIZE: usize = 8;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// AES-128 block cipher (encryption direction only — CTR mode never needs the inverse cipher).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expand a 16-byte key into the 11 round keys.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut round_keys = [[0u8; 16]; 11];
        round_keys[0].copy_from_slice(key);
        for round in 1..11 {
            let prev = round_keys[round - 1];
            let mut temp = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon
            temp.rotate_left(1);
            for b in temp.iter_mut() {
                *b = SBOX[*b as usize];
            }
            temp[0] ^= RCON[round - 1];
            let mut rk = [0u8; 16];
            for i in 0..4 {
                rk[i] = prev[i] ^ temp[i];
            }
            for i in 4..16 {
                rk[i] = prev[i] ^ rk[i - 4];
            }
            round_keys[round] = rk;
        }
        Aes128 { round_keys }
    }

    /// Encrypt a single 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State is column-major: byte `i` is row `i % 4`, column `i / 4`.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    // Row 1: shift left by 1.
    state[1] = s[5];
    state[5] = s[9];
    state[9] = s[13];
    state[13] = s[1];
    // Row 2: shift left by 2.
    state[2] = s[10];
    state[6] = s[14];
    state[10] = s[2];
    state[14] = s[6];
    // Row 3: shift left by 3.
    state[3] = s[15];
    state[7] = s[3];
    state[11] = s[7];
    state[15] = s[11];
}

fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let base = col * 4;
        let a0 = state[base];
        let a1 = state[base + 1];
        let a2 = state[base + 2];
        let a3 = state[base + 3];
        state[base] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        state[base + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        state[base + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        state[base + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

/// AES-128 in counter (CTR) mode.
///
/// The ciphertext layout is `nonce (8 bytes) || keystream-XOR(plaintext)`; CTR is its own
/// inverse so [`AesCtr::decrypt`] simply re-derives the keystream.
#[derive(Clone)]
pub struct AesCtr {
    cipher: Aes128,
}

impl AesCtr {
    /// Create a CTR-mode cipher from a 16-byte key.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        AesCtr {
            cipher: Aes128::new(key),
        }
    }

    /// Encrypt `plaintext` under the given 8-byte nonce. The nonce is prepended to the output.
    pub fn encrypt(&self, nonce: &[u8; NONCE_SIZE], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_SIZE + plaintext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        self.apply_keystream(nonce, &mut out[NONCE_SIZE..]);
        out
    }

    /// Decrypt a ciphertext produced by [`AesCtr::encrypt`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, crate::CryptoError> {
        if ciphertext.len() < NONCE_SIZE {
            return Err(crate::CryptoError::MalformedCiphertext);
        }
        let mut nonce = [0u8; NONCE_SIZE];
        nonce.copy_from_slice(&ciphertext[..NONCE_SIZE]);
        let mut out = ciphertext[NONCE_SIZE..].to_vec();
        self.apply_keystream(&nonce, &mut out);
        Ok(out)
    }

    fn apply_keystream(&self, nonce: &[u8; NONCE_SIZE], data: &mut [u8]) {
        let mut counter_block = [0u8; BLOCK_SIZE];
        counter_block[..NONCE_SIZE].copy_from_slice(nonce);
        for (block_idx, chunk) in data.chunks_mut(BLOCK_SIZE).enumerate() {
            counter_block[NONCE_SIZE..].copy_from_slice(&(block_idx as u64).to_be_bytes());
            let mut keystream = counter_block;
            self.cipher.encrypt_block(&mut keystream);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS-197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
    }

    // FIPS-197 Appendix C.1 (key 000102...0f, plaintext 00112233...ff).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
    #[test]
    fn sp800_38a_ctr_keystream_first_block() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        // The reference counter block f0f1f2...ff; our CTR layout differs (nonce || counter),
        // so check the raw block-cipher output instead, which is what SP 800-38A tabulates.
        let mut block = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "ec8cdf7398607cb0f2d21675ea9ea1e4");
    }

    #[test]
    fn ctr_round_trip_various_lengths() {
        let key = [7u8; KEY_SIZE];
        let ctr = AesCtr::new(&key);
        let nonce = [1u8; NONCE_SIZE];
        for len in [0usize, 1, 15, 16, 17, 100, 1000, 4096] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = ctr.encrypt(&nonce, &plaintext);
            assert_eq!(ct.len(), len + NONCE_SIZE);
            assert_eq!(ctr.decrypt(&ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let ctr = AesCtr::new(&[9u8; KEY_SIZE]);
        let pt = b"the content of a sensitive document".to_vec();
        let ct = ctr.encrypt(&[0u8; NONCE_SIZE], &pt);
        assert_ne!(&ct[NONCE_SIZE..], &pt[..]);
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let ct = AesCtr::new(&[1u8; KEY_SIZE]).encrypt(&[0u8; NONCE_SIZE], b"hello world");
        let wrong = AesCtr::new(&[2u8; KEY_SIZE]).decrypt(&ct).unwrap();
        assert_ne!(wrong, b"hello world".to_vec());
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let ctr = AesCtr::new(&[3u8; KEY_SIZE]);
        let a = ctr.encrypt(&[0u8; NONCE_SIZE], b"same plaintext");
        let b = ctr.encrypt(&[1u8; NONCE_SIZE], b"same plaintext");
        assert_ne!(a[NONCE_SIZE..], b[NONCE_SIZE..]);
    }

    #[test]
    fn truncated_ciphertext_is_rejected() {
        let ctr = AesCtr::new(&[3u8; KEY_SIZE]);
        assert!(ctr.decrypt(&[1, 2, 3]).is_err());
    }
}
